//! The caches' metadata column, allocated page by page.

/// Entries per page (4 KiB of directory entries).
const PAGE: usize = 512;

/// One caller-metadata value per tag, in pages of [`PAGE`] entries that
/// the first write into each allocates. A generic `M` cannot start as
/// zeroed memory, and writing a default for every tag would make a
/// cache's `new` touch the whole column; this way `new` writes nothing
/// and a run pays only for the pages its fills reach.
#[derive(Debug, Clone)]
pub(crate) struct MetaColumn<M> {
    pages: Vec<Option<Box<[M]>>>,
}

impl<M: Clone + Default> MetaColumn<M> {
    /// A column of `len` entries with no page allocated.
    pub(crate) fn new(len: usize) -> Self {
        MetaColumn { pages: (0..len.div_ceil(PAGE)).map(|_| None).collect() }
    }

    /// Entry `i`, which must have been written.
    pub(crate) fn get(&self, i: usize) -> &M {
        let page = self.pages[i / PAGE].as_deref().expect("a filled tag's page exists");
        &page[i % PAGE]
    }

    /// Entry `i`, which must have been written.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut M {
        let page = self.pages[i / PAGE].as_deref_mut().expect("a filled tag's page exists");
        &mut page[i % PAGE]
    }

    /// Writes entry `i`, allocating its page on the first write into it.
    pub(crate) fn set(&mut self, i: usize, meta: M) {
        let page = self.pages[i / PAGE]
            .get_or_insert_with(|| vec![M::default(); PAGE].into_boxed_slice());
        page[i % PAGE] = meta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_are_allocated_by_their_first_write() {
        let mut col: MetaColumn<u32> = MetaColumn::new(3 * PAGE + 1);
        assert_eq!(col.pages.len(), 4);
        assert!(col.pages.iter().all(Option::is_none), "new allocates no page");
        col.set(PAGE + 7, 9);
        assert_eq!(col.pages.iter().filter(|p| p.is_some()).count(), 1);
        assert_eq!(*col.get(PAGE + 7), 9);
        assert_eq!(*col.get(PAGE), 0, "the rest of a written page is the default");
        *col.get_mut(PAGE + 7) += 1;
        assert_eq!(*col.get(PAGE + 7), 10);
        col.set(3 * PAGE, 4);
        assert_eq!(*col.get(3 * PAGE), 4, "the short last page holds its entry");
    }
}
