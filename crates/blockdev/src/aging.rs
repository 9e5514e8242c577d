//! File-system layout and aging.
//!
//! Paper §2.2.1 (File Layout): "Sequential file read performance across
//! aged file systems varies by up to a factor of two, even when the file
//! systems are otherwise empty. However, when the file systems are
//! recreated afresh, sequential file read performance is identical across
//! all drives."
//!
//! [`FileSystem`] allocates files as extent lists over a disk. A fresh file
//! system allocates contiguously; *aging* fragments the free space so that
//! later allocations scatter, and sequential reads pay inter-extent seeks.

use simcore::rng::Stream;
use simcore::time::SimTime;

use crate::disk::{Disk, DiskError};

/// A contiguous run of blocks belonging to a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extent {
    /// First block.
    pub start: u64,
    /// Number of blocks.
    pub len: u64,
}

/// A file: an ordered list of extents.
#[derive(Clone, Debug, Default)]
pub struct File {
    extents: Vec<Extent>,
}

impl File {
    /// Total length in blocks.
    pub fn len_blocks(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Number of extents (1 = perfectly contiguous).
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// The extents.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }
}

/// A simple extent-allocating file system with an aging model.
#[derive(Clone, Debug)]
pub struct FileSystem {
    total_blocks: u64,
    // Sorted, non-overlapping free runs.
    free: Vec<Extent>,
    files: Vec<File>,
    rng: Stream,
}

impl FileSystem {
    /// Creates a fresh file system over `total_blocks` blocks.
    pub fn new(total_blocks: u64, rng: Stream) -> Self {
        assert!(total_blocks > 0, "empty device");
        FileSystem {
            total_blocks,
            free: vec![Extent { start: 0, len: total_blocks }],
            files: Vec::new(),
            rng,
        }
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.free.iter().map(|e| e.len).sum()
    }

    /// Number of free-space fragments (1 = unfragmented).
    pub fn free_fragments(&self) -> usize {
        self.free.len()
    }

    /// Ages the file system: performs `churn` rounds in which a burst of
    /// small files is created and, at the end of the round, the
    /// short-lived half is deleted again. The surviving (long-lived) files
    /// pin space between the holes, fragmenting free space the way years
    /// of use do (cf. Smith & Seltzer's aging methodology). Returns the
    /// number of free fragments afterwards.
    pub fn age(&mut self, churn: u32) -> usize {
        let mut rng = self.rng.derive("aging");
        // Fill to ~80% utilisation with scattered small files — aged file
        // systems are full file systems.
        let target_free = self.total_blocks / 10;
        while self.free_blocks() > target_free {
            let blocks = rng.next_range(8, 256).min(self.free_blocks());
            if self.create_file_random_fit(blocks, &mut rng).is_err() {
                break;
            }
        }
        // Steady-state churn: delete a few files, create a few files.
        for _ in 0..churn {
            for _ in 0..4 {
                if !self.files.is_empty() {
                    let i = rng.next_below(self.files.len() as u64) as usize;
                    let f = self.files.swap_remove(i);
                    self.release(&f);
                }
            }
            for _ in 0..4 {
                let blocks = rng.next_range(8, 128);
                let _ = self.create_file_random_fit(blocks, &mut rng);
            }
        }
        self.free_fragments()
    }

    fn release(&mut self, file: &File) {
        for &e in file.extents() {
            self.free.push(e);
        }
        self.normalise_free();
    }

    fn normalise_free(&mut self) {
        self.free.sort_by_key(|e| e.start);
        let mut merged: Vec<Extent> = Vec::with_capacity(self.free.len());
        for e in self.free.drain(..) {
            match merged.last_mut() {
                Some(last) if last.start + last.len == e.start => last.len += e.len,
                _ => merged.push(e),
            }
        }
        self.free = merged;
    }

    /// Creates a file of `blocks` blocks, first-fit over the free list.
    ///
    /// Returns the file's index, or an error if space is exhausted.
    pub fn create_file(&mut self, blocks: u64) -> Result<usize, DiskError> {
        assert!(blocks > 0, "empty file");
        let mut needed = blocks;
        let mut extents = Vec::new();
        let mut i = 0;
        while needed > 0 && i < self.free.len() {
            let run = &mut self.free[i];
            let take = run.len.min(needed);
            extents.push(Extent { start: run.start, len: take });
            run.start += take;
            run.len -= take;
            needed -= take;
            if run.len == 0 {
                self.free.remove(i);
            } else {
                i += 1;
            }
        }
        if needed > 0 {
            // Roll back.
            for e in extents {
                self.free.push(e);
            }
            self.normalise_free();
            return Err(DiskError::OutOfRange);
        }
        self.files.push(File { extents });
        Ok(self.files.len() - 1)
    }

    /// Creates a file by drawing from randomly chosen free runs — the
    /// placement behaviour of a real allocator spreading files across
    /// cylinder groups. Used by [`age`](Self::age).
    fn create_file_random_fit(
        &mut self,
        blocks: u64,
        rng: &mut Stream,
    ) -> Result<usize, DiskError> {
        assert!(blocks > 0, "empty file");
        if self.free_blocks() < blocks {
            return Err(DiskError::OutOfRange);
        }
        // Prefer one contiguous placement at a random offset inside a
        // random sufficiently large run: deleting such a file later leaves
        // a hole in the middle of the run, which is what fragments free
        // space over time.
        let candidates: Vec<usize> =
            (0..self.free.len()).filter(|&i| self.free[i].len >= blocks).collect();
        if candidates.is_empty() {
            return self.create_file(blocks);
        }
        let i = *rng.choose(&candidates);
        let run = self.free[i];
        let slack = run.len - blocks;
        let offset = if slack == 0 { 0 } else { rng.next_below(slack + 1) };
        let start = run.start + offset;
        self.free.remove(i);
        if offset > 0 {
            self.free.push(Extent { start: run.start, len: offset });
        }
        if slack > offset {
            self.free.push(Extent { start: start + blocks, len: slack - offset });
        }
        self.normalise_free();
        self.files.push(File { extents: vec![Extent { start, len: blocks }] });
        Ok(self.files.len() - 1)
    }

    /// The file at `index`.
    pub fn file(&self, index: usize) -> &File {
        &self.files[index]
    }

    /// Reads a whole file sequentially through `disk`, extent by extent.
    ///
    /// Returns `(bandwidth bytes/s, finish time)`.
    pub fn read_file(
        &self,
        disk: &mut Disk,
        index: usize,
        now: SimTime,
    ) -> Result<(f64, SimTime), DiskError> {
        let file = &self.files[index];
        let bs = disk.geometry().block_bytes as u64;
        let mut t = now;
        for &e in file.extents() {
            // Stream each extent in 256-block requests.
            let mut off = 0;
            while off < e.len {
                let n = 256.min(e.len - off);
                let g = disk.read(t, e.start + off, n)?;
                t = g.finish;
                off += n;
            }
        }
        let elapsed = (t - now).as_secs_f64();
        let bytes = (file.len_blocks() * bs) as f64;
        let bw = if elapsed > 0.0 { bytes / elapsed } else { 0.0 };
        Ok((bw, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use simcore::time::SimDuration;

    fn fs_and_disk(seed: u64) -> (FileSystem, Disk) {
        let g = Geometry::hawk_5400();
        // A 200 MB partition keeps aging fast while leaving the disk's
        // full seek range in play.
        let fs = FileSystem::new(400_000, Stream::from_seed(seed).derive("aging.fs"));
        let disk = Disk::new(g, Stream::from_seed(seed).derive("aging.disk"));
        (fs, disk)
    }

    #[test]
    fn fresh_allocation_is_contiguous() {
        let (mut fs, _) = fs_and_disk(1);
        let f = fs.create_file(10_000).expect("space");
        assert_eq!(fs.file(f).extent_count(), 1);
        assert_eq!(fs.file(f).len_blocks(), 10_000);
    }

    #[test]
    fn aging_fragments_free_space() {
        let (mut fs, _) = fs_and_disk(2);
        let before = fs.free_fragments();
        let after = fs.age(200);
        assert!(after > before * 10, "aging should fragment: {before} -> {after}");
    }

    #[test]
    fn aged_allocation_is_fragmented() {
        let (mut fs, _) = fs_and_disk(3);
        fs.age(200);
        let f = fs.create_file(20_000).expect("space");
        assert!(fs.file(f).extent_count() > 20, "extents: {}", fs.file(f).extent_count());
    }

    #[test]
    fn aged_read_loses_bandwidth() {
        // The paper's factor-of-two spread between fresh and aged systems.
        let (mut fresh_fs, mut fresh_disk) = fs_and_disk(4);
        let ff = fresh_fs.create_file(30_000).expect("space");
        let (bw_fresh, _) = fresh_fs.read_file(&mut fresh_disk, ff, SimTime::ZERO).expect("ok");

        let (mut aged_fs, mut aged_disk) = fs_and_disk(4);
        aged_fs.age(300);
        let af = aged_fs.create_file(30_000).expect("space");
        let (bw_aged, _) = aged_fs.read_file(&mut aged_disk, af, SimTime::ZERO).expect("ok");

        let ratio = bw_fresh / bw_aged;
        assert!((1.5..4.0).contains(&ratio), "fresh {bw_fresh} vs aged {bw_aged} (ratio {ratio})");
    }

    #[test]
    fn free_space_is_conserved() {
        let (mut fs, _) = fs_and_disk(5);
        let total = fs.free_blocks();
        let f1 = fs.create_file(1_000).expect("space");
        let f2 = fs.create_file(2_000).expect("space");
        assert_eq!(fs.free_blocks(), total - 3_000);
        let file1 = fs.file(f1).clone();
        fs.release(&file1);
        assert_eq!(fs.free_blocks(), total - 2_000);
        let _ = f2;
    }

    #[test]
    fn allocation_failure_rolls_back() {
        let mut fs = FileSystem::new(100, Stream::from_seed(6));
        assert!(fs.create_file(101).is_err());
        assert_eq!(fs.free_blocks(), 100);
        assert_eq!(fs.free_fragments(), 1);
    }

    #[test]
    fn read_file_duration_positive() {
        let (mut fs, mut disk) = fs_and_disk(7);
        let f = fs.create_file(1_000).expect("space");
        let (bw, finish) = fs.read_file(&mut disk, f, SimTime::ZERO).expect("ok");
        assert!(bw > 0.0);
        assert!(finish > SimTime::ZERO + SimDuration::from_micros(1));
    }
}
