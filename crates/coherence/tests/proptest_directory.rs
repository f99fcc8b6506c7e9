//! Property tests: the directory invariants hold under arbitrary legal
//! request streams, mirroring what an inclusive L2 would observe
//! (cmpsim-harness port — same MSI state-transition legality invariants).

use cmpsim_coherence::{CoreId, DirAction, DirEntry, L1Request, MsiState};
use cmpsim_harness::{gen, prop::check, prop_assert, prop_assert_eq, Gen};

const CORES: u8 = 8;

/// A model L1 view: what state each core believes it has.
fn apply_to_model(model: &mut [MsiState], core: CoreId, req: L1Request, actions: &[DirAction]) {
    // First apply probes to other cores.
    for a in actions {
        let t = a.target().index();
        match a {
            DirAction::Invalidate(_) | DirAction::RecallInvalidate(_) => {
                model[t] = MsiState::Invalid
            }
            DirAction::RecallDowngrade(_) => model[t] = MsiState::Shared,
        }
    }
    let me = core.index();
    match req {
        L1Request::GetS => model[me] = MsiState::Shared,
        L1Request::GetX | L1Request::Upgrade => model[me] = MsiState::Modified,
        L1Request::PutS | L1Request::PutM => model[me] = MsiState::Invalid,
    }
}

/// Picks a legal request for `core` given its current model state.
fn legal_request(state: MsiState, choice: u8) -> L1Request {
    match state {
        MsiState::Invalid => {
            if choice.is_multiple_of(2) {
                L1Request::GetS
            } else {
                L1Request::GetX
            }
        }
        MsiState::Shared => match choice % 3 {
            0 => L1Request::Upgrade,
            1 => L1Request::PutS,
            _ => L1Request::GetS, // re-read is harmless
        },
        MsiState::Modified => match choice % 2 {
            0 => L1Request::PutM,
            _ => L1Request::GetX, // rewrite
        },
    }
}

fn op_stream(max_len: usize) -> Gen<Vec<(u8, u8)>> {
    gen::vec_of(gen::pair(gen::u8s(0..CORES), gen::u8s(..)), 1..max_len)
}

#[test]
fn single_writer_multiple_reader() {
    check("single_writer_multiple_reader", &op_stream(200), |ops| {
        let mut dir = DirEntry::new();
        let mut model = vec![MsiState::Invalid; usize::from(CORES)];
        for &(core, choice) in ops {
            let core = CoreId(core);
            let req = legal_request(model[core.index()], choice);
            let actions = dir.handle(core, req);
            apply_to_model(&mut model, core, req, &actions.iter().collect::<Vec<_>>());

            // Invariant: at most one Modified copy, and if one exists no
            // other core has any copy.
            let owners: Vec<_> = model.iter().enumerate()
                .filter(|(_, s)| **s == MsiState::Modified).collect();
            prop_assert!(owners.len() <= 1);
            if let Some((o, _)) = owners.first() {
                for (i, s) in model.iter().enumerate() {
                    if i != *o {
                        prop_assert_eq!(*s, MsiState::Invalid);
                    }
                }
                prop_assert_eq!(dir.owner(), Some(CoreId(*o as u8)));
            }

            // Invariant: directory sharer bits exactly mirror the model.
            for (i, s) in model.iter().enumerate() {
                prop_assert_eq!(
                    dir.sharers().contains(CoreId(i as u8)),
                    *s != MsiState::Invalid,
                    "sharer bit mismatch for core {}", i
                );
            }
        }
        Ok(())
    });
}

#[test]
fn recall_all_leaves_no_copies() {
    check("recall_all_leaves_no_copies", &op_stream(50), |ops| {
        let mut dir = DirEntry::new();
        let mut model = vec![MsiState::Invalid; usize::from(CORES)];
        for &(core, choice) in ops {
            let core = CoreId(core);
            let req = legal_request(model[core.index()], choice);
            let actions = dir.handle(core, req);
            apply_to_model(&mut model, core, req, &actions.iter().collect::<Vec<_>>());
        }
        let actions = dir.recall_all();
        for a in actions {
            let t = a.target().index();
            prop_assert!(model[t] != MsiState::Invalid, "probe to core without a copy");
            model[t] = MsiState::Invalid;
        }
        prop_assert!(model.iter().all(|s| *s == MsiState::Invalid));
        prop_assert!(!dir.has_l1_copies());
        prop_assert_eq!(dir.owner(), None);
        Ok(())
    });
}

/// The directory as it was before `DirActions`: the same MSI transitions,
/// each returning its probes collected into a `Vec`.
#[derive(Debug, Default)]
struct VecDirectory {
    sharers: u32,
    owner: Option<u8>,
    dirty: bool,
}

impl VecDirectory {
    fn members(&self) -> impl Iterator<Item = u8> + '_ {
        (0..32u8).filter(|i| self.sharers & (1 << i) != 0)
    }

    fn handle(&mut self, core: u8, req: L1Request) -> Vec<DirAction> {
        let mut actions = Vec::new();
        match req {
            L1Request::GetS => {
                if let Some(o) = self.owner {
                    if o != core {
                        actions.push(DirAction::RecallDowngrade(CoreId(o)));
                        self.dirty = true;
                    }
                    self.owner = None;
                }
                self.sharers |= 1 << core;
            }
            L1Request::GetX | L1Request::Upgrade => {
                if let Some(o) = self.owner {
                    if o != core {
                        actions.push(DirAction::RecallInvalidate(CoreId(o)));
                        self.dirty = true;
                    }
                } else {
                    for other in self.members().filter(|&c| c != core).collect::<Vec<_>>() {
                        actions.push(DirAction::Invalidate(CoreId(other)));
                    }
                }
                self.sharers = 1 << core;
                self.owner = Some(core);
            }
            L1Request::PutS => {
                self.sharers &= !(1 << core);
                if self.owner == Some(core) {
                    self.owner = None;
                }
            }
            L1Request::PutM => {
                if self.owner == Some(core) {
                    self.owner = None;
                    self.dirty = true;
                }
                self.sharers &= !(1 << core);
            }
        }
        actions
    }

    fn recall_all(&mut self) -> Vec<DirAction> {
        let actions = match self.owner {
            Some(o) => {
                self.dirty = true;
                vec![DirAction::RecallInvalidate(CoreId(o))]
            }
            None => self.members().map(|c| DirAction::Invalidate(CoreId(c))).collect(),
        };
        self.sharers = 0;
        self.owner = None;
        actions
    }
}

/// Every transition's action set yields exactly the probes, in exactly
/// the order, that the `Vec`-returning directory produced, and leaves the
/// same state — over all 32 cores, from sets filled to every core.
#[test]
fn action_sets_match_the_collected_vectors() {
    let ops = gen::vec_of(gen::pair(gen::u8s(0..32), gen::u8s(0..8)), 0..120);
    let cases = gen::pair(gen::bools(), ops);
    check("action_sets_match_the_collected_vectors", &cases, |(fill_all, ops)| {
        let mut dir = DirEntry::new();
        let mut reference = VecDirectory::default();
        let prefix: Vec<(u8, u8)> =
            if *fill_all { (0..32).map(|c| (c, 0)).collect() } else { Vec::new() };
        for &(core, choice) in prefix.iter().chain(ops) {
            let req = match choice {
                0..=3 => L1Request::GetS,
                4 => L1Request::GetX,
                5 => L1Request::Upgrade,
                6 => L1Request::PutS,
                _ => L1Request::PutM,
            };
            let got = dir.handle(CoreId(core), req);
            let want = reference.handle(core, req);
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(got.is_empty(), want.is_empty());
            prop_assert_eq!(got.iter().collect::<Vec<_>>(), want, "core {core} {req:?}");
            prop_assert_eq!(dir.sharers().len(), reference.members().count());
            prop_assert!(reference.members().all(|c| dir.sharers().contains(CoreId(c))));
            prop_assert_eq!(dir.owner(), reference.owner.map(CoreId));
            prop_assert_eq!(dir.is_dirty(), reference.dirty);
        }
        let (got, want) = (dir.recall_all(), reference.recall_all());
        prop_assert_eq!(got.len(), want.len());
        prop_assert_eq!(got.into_iter().collect::<Vec<_>>(), want);
        prop_assert_eq!(dir.is_dirty(), reference.dirty);
        Ok(())
    });
}
