//! Property tests for `fastmap`: the open-addressing `AddrMap` is checked
//! against `std::collections::HashMap` as an oracle over random operation
//! sequences.

use cmpsim_harness::fastmap::AddrMap;
use cmpsim_harness::{gen, prop::check, prop_assert, prop_assert_eq};
use std::collections::HashMap;

/// One map operation: 0 = insert, 1 = remove, 2 = get.
type Op = (u32, u64, u64);

/// Operation sequences over a small key domain so collisions, tombstones
/// and re-insertions are frequent; a few huge keys exercise hashing of
/// real block addresses.
fn ops() -> gen::Gen<Vec<Op>> {
    let key = gen::select(vec![
        0u64,
        1,
        2,
        3,
        5,
        8,
        13,
        21,
        0x40,
        0x41,
        0x1000,
        0x1040,
        u64::MAX,
        0xFFFF_FFFF_0000_0040,
    ]);
    let op = gen::triple(gen::u32s(0..=2), key, gen::u64s(..));
    gen::vec_of(op, 0..=200)
}

/// `AddrMap` agrees with `HashMap` after any operation sequence: same
/// return values, same length, same final contents.
#[test]
fn matches_std_hashmap_oracle() {
    check("matches_std_hashmap_oracle", &ops(), |ops| {
        let mut map = AddrMap::new();
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for &(op, key, value) in ops {
            match op {
                0 => prop_assert_eq!(map.insert(key, value), oracle.insert(key, value)),
                1 => prop_assert_eq!(map.remove(key), oracle.remove(&key)),
                _ => {
                    prop_assert_eq!(map.get(key).copied(), oracle.get(&key).copied());
                    prop_assert_eq!(map.contains_key(key), oracle.contains_key(&key));
                }
            }
            prop_assert_eq!(map.len(), oracle.len());
        }
        // Final contents agree in both directions.
        for (&k, &v) in &oracle {
            prop_assert_eq!(map.get(k).copied(), Some(v));
        }
        let mut keys: Vec<u64> = map.keys().collect();
        keys.sort_unstable();
        let mut oracle_keys: Vec<u64> = oracle.keys().copied().collect();
        oracle_keys.sort_unstable();
        prop_assert_eq!(keys, oracle_keys);
        Ok(())
    });
}

/// `get_mut` writes through to the stored value.
#[test]
fn get_mut_writes_through() {
    check("get_mut_writes_through", &ops(), |ops| {
        let mut map = AddrMap::new();
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for &(op, key, value) in ops {
            match op {
                0 => {
                    map.insert(key, value);
                    oracle.insert(key, value);
                }
                1 => {
                    map.remove(key);
                    oracle.remove(&key);
                }
                _ => {
                    // Mutate through get_mut in both maps.
                    if let Some(v) = map.get_mut(key) {
                        *v = v.wrapping_add(1);
                    }
                    if let Some(v) = oracle.get_mut(&key) {
                        *v = v.wrapping_add(1);
                    }
                }
            }
        }
        for (&k, &v) in &oracle {
            prop_assert_eq!(map.get(k).copied(), Some(v));
        }
        Ok(())
    });
}

/// Churning insert/remove cycles over a bounded key set must not grow the
/// table without bound: tombstones are reused on re-insertion.
#[test]
fn tombstone_churn_bounds_table() {
    check(
        "tombstone_churn_bounds_table",
        &gen::vec_of(gen::u64s(0..=31), 1..=400),
        |keys| {
            let mut map = AddrMap::with_capacity(64);
            for &k in keys {
                // Insert then remove: net size stays 0 or 1, so however
                // long the churn, a correctly tombstone-reusing table
                // holds at most the 32-key working set.
                map.insert(k, k);
                map.remove(k);
            }
            prop_assert_eq!(map.len(), 0);
            for k in 0..32u64 {
                prop_assert!(!map.contains_key(k));
                map.insert(k, k * 2);
            }
            for k in 0..32u64 {
                prop_assert_eq!(map.get(k).copied(), Some(k * 2));
            }
            Ok(())
        },
    );
}
