//! Bad-block remapping, transparent to upper layers.
//!
//! Paper §2.1.2 (Fault Masking): identical Seagate Hawk drives delivered
//! 5.5 MB/s — except one, which delivered 5.0 MB/s and turned out to have
//! three times the block faults of its peers; "SCSI bad-block remappings,
//! transparent to both users and file systems, were the culprit."
//!
//! [`RemapTable`] records grown defects and maps them to spare blocks at
//! the end of the disk. Reading a remapped block costs an extra round-trip
//! seek to the spare area, which is exactly the mechanism that silently
//! taxes sequential bandwidth.

use std::collections::BTreeMap;

use simcore::rng::Stream;

/// A grown-defect remapping table.
///
/// Defective LBAs are mapped to spare blocks allocated downward from the
/// end of the device.
#[derive(Clone, Debug)]
pub struct RemapTable {
    blocks: u64,
    spare_area: u64,
    map: BTreeMap<u64, u64>,
    next_spare: u64,
}

impl RemapTable {
    /// Creates a table for a device with `blocks` blocks and `spare_area`
    /// spare blocks reserved at the top of the LBA space.
    ///
    /// # Panics
    ///
    /// Panics if `spare_area >= blocks`.
    pub fn new(blocks: u64, spare_area: u64) -> Self {
        assert!(spare_area < blocks, "spare area swallows the whole device");
        RemapTable { blocks, spare_area, map: BTreeMap::new(), next_spare: blocks - 1 }
    }

    /// Marks `lba` defective, mapping it to the next free spare block.
    ///
    /// Returns the spare chosen, or `None` if the spare area is exhausted
    /// or the block is already remapped.
    pub fn grow_defect(&mut self, lba: u64) -> Option<u64> {
        assert!(lba < self.blocks, "lba {lba} out of range");
        if self.map.contains_key(&lba) {
            return None;
        }
        let used = self.map.len() as u64;
        if used >= self.spare_area {
            return None;
        }
        let spare = self.next_spare;
        self.next_spare -= 1;
        self.map.insert(lba, spare);
        Some(spare)
    }

    /// Scatters `count` defects uniformly over the user-visible LBA range.
    ///
    /// Returns how many were actually added (duplicates are retried a
    /// bounded number of times, so the result can fall short only when the
    /// device is nearly full of defects).
    pub fn grow_random_defects(&mut self, count: u64, rng: &mut Stream) -> u64 {
        let user_blocks = self.blocks - self.spare_area;
        let mut added = 0;
        let mut attempts = 0;
        while added < count && attempts < count * 16 {
            attempts += 1;
            let lba = rng.next_below(user_blocks);
            if self.grow_defect(lba).is_some() {
                added += 1;
            }
        }
        added
    }

    /// Resolves an LBA: `Ok(lba)` if direct, `Err(spare)` if remapped.
    pub fn resolve(&self, lba: u64) -> Result<u64, u64> {
        match self.map.get(&lba) {
            Some(&spare) => Err(spare),
            None => Ok(lba),
        }
    }

    /// True if `lba` has been remapped.
    pub fn is_remapped(&self, lba: u64) -> bool {
        self.map.contains_key(&lba)
    }

    /// Number of remapped blocks in `[lba, lba + n)`.
    pub fn remapped_in_range(&self, lba: u64, n: u64) -> u64 {
        self.map.range(lba..lba + n).count() as u64
    }

    /// Total grown defects.
    pub fn defect_count(&self) -> u64 {
        self.map.len() as u64
    }

    /// Remaining spare capacity.
    pub fn spares_left(&self) -> u64 {
        self.spare_area - self.map.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defects_map_to_distinct_spares() {
        let mut t = RemapTable::new(1000, 10);
        let s1 = t.grow_defect(5).expect("spare available");
        let s2 = t.grow_defect(7).expect("spare available");
        assert_ne!(s1, s2);
        assert!(s1 >= 990 && s2 >= 990, "spares live at the top");
        assert_eq!(t.defect_count(), 2);
        assert_eq!(t.spares_left(), 8);
    }

    #[test]
    fn resolve_distinguishes_remapped() {
        let mut t = RemapTable::new(1000, 10);
        let spare = t.grow_defect(42).expect("spare available");
        assert_eq!(t.resolve(41), Ok(41));
        assert_eq!(t.resolve(42), Err(spare));
        assert!(t.is_remapped(42));
        assert!(!t.is_remapped(41));
    }

    #[test]
    fn double_defect_is_rejected() {
        let mut t = RemapTable::new(1000, 10);
        assert!(t.grow_defect(1).is_some());
        assert!(t.grow_defect(1).is_none());
        assert_eq!(t.defect_count(), 1);
    }

    #[test]
    fn spare_exhaustion() {
        let mut t = RemapTable::new(100, 2);
        assert!(t.grow_defect(0).is_some());
        assert!(t.grow_defect(1).is_some());
        assert!(t.grow_defect(2).is_none());
        assert_eq!(t.spares_left(), 0);
    }

    #[test]
    fn random_defects_land_in_user_area() {
        let mut t = RemapTable::new(10_000, 500);
        let mut rng = Stream::from_seed(1);
        let added = t.grow_random_defects(300, &mut rng);
        assert_eq!(added, 300);
        // All defects are in the user-visible range.
        for (&lba, _) in t.map.iter() {
            assert!(lba < 9_500);
        }
    }

    #[test]
    fn remapped_in_range_counts() {
        let mut t = RemapTable::new(1000, 10);
        t.grow_defect(10);
        t.grow_defect(15);
        t.grow_defect(25);
        assert_eq!(t.remapped_in_range(10, 10), 2);
        assert_eq!(t.remapped_in_range(0, 1000 - 10), 3);
        assert_eq!(t.remapped_in_range(11, 4), 0);
    }
}
