//! panic-path negative fixture: `#[test]`, a path ending in `test` and
//! `#[cfg(test)]` mark test code, which is exempt; `#[cfg(not(test))]`
//! does not, so the fail-stop below it is seen and its written reason
//! is used (a reason that silenced nothing would be reported stale).

/// The entry point: its methods seed the reachability fixpoint.
pub struct Injector {
    levels: Vec<u64>,
}

impl Injector {
    /// The first level, built only outside tests.
    #[cfg(not(test))]
    pub fn first(&self) -> u64 {
        // fslint: allow(panic-path) — the constructor refuses an empty level list
        *self.levels.first().unwrap()
    }

    /// A probe for tests only.
    #[cfg(test)]
    pub fn probe(&self) -> u64 {
        *self.levels.last().unwrap()
    }

    /// An async probe run by a test runtime's own test attribute.
    #[runtime::test]
    pub async fn settle(&self) -> u64 {
        self.levels.iter().copied().max().expect("a level")
    }

    /// A plain test.
    #[test]
    pub fn levels_are_set(&self) {
        assert!(!self.levels.is_empty());
        let _ = self.levels.get(9).unwrap();
    }
}
