//! Performance nonmonotonicity: the UltraSPARC fetch path.
//!
//! Paper §2.1.1 (Prediction and Fetch Logic), citing Kushman: "the
//! implementation of the next-field predictors, fetching logic, grouping
//! logic, and branch-prediction logic all can lead to the unexpected
//! run-time behavior of programs. Simple code snippets are shown to exhibit
//! non-deterministic performance — a program, executed twice on the same
//! processor under identical conditions, has run times that vary by up to a
//! factor of three."
//!
//! [`FetchUnit`] models a direct-mapped next-fetch-address predictor. A
//! loop whose branch targets alias in the predictor table mispredicts on
//! every iteration; whether they alias depends on the code's *load
//! address* — something "identical runs" do not control. [`run_snippet`]
//! executes the same snippet at different alignments and reports the
//! spread.

/// A direct-mapped next-fetch-address predictor.
#[derive(Clone, Debug)]
pub struct FetchUnit {
    entries: Vec<Option<(u64, u64)>>, // (pc, predicted target)
    hits: u64,
    mispredicts: u64,
}

impl FetchUnit {
    /// Creates a predictor with `entries` slots (power of two typical).
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "empty predictor");
        FetchUnit { entries: vec![None; entries], hits: 0, mispredicts: 0 }
    }

    fn index(&self, pc: u64) -> usize {
        // Indexed by word-aligned PC, as real next-field predictors are.
        ((pc >> 2) as usize) % self.entries.len()
    }

    /// Executes one control transfer from `pc` to `target`; returns true
    /// if it was predicted correctly.
    pub fn transfer(&mut self, pc: u64, target: u64) -> bool {
        let i = self.index(pc);
        let correct = matches!(self.entries[i], Some((p, t)) if p == pc && t == target);
        if correct {
            self.hits += 1;
        } else {
            self.mispredicts += 1;
            self.entries[i] = Some((pc, target));
        }
        correct
    }

    /// Correct predictions so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Mispredictions so far.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }
}

/// A snippet: a loop executing `branches` control transfers per iteration,
/// whose branch PCs are spaced `spacing` bytes apart.
#[derive(Clone, Copy, Debug)]
pub struct Snippet {
    /// Branches per loop iteration.
    pub branches: u64,
    /// Distance between branch instructions, in bytes.
    pub spacing: u64,
    /// Loop iterations.
    pub iterations: u64,
}

/// Cycle cost of running `snippet` loaded at `base`, with `predictor_slots`
/// predictor entries, `cycles_per_branch` for a predicted transfer and
/// `mispredict_penalty` extra cycles otherwise.
pub fn run_snippet(
    snippet: Snippet,
    base: u64,
    predictor_slots: usize,
    cycles_per_branch: f64,
    mispredict_penalty: f64,
) -> f64 {
    let mut fu = FetchUnit::new(predictor_slots);
    for _ in 0..snippet.iterations {
        for b in 0..snippet.branches {
            let pc = base + b * snippet.spacing;
            // Each branch jumps to the next branch; the last jumps back.
            let target =
                if b + 1 < snippet.branches { base + (b + 1) * snippet.spacing } else { base };
            fu.transfer(pc, target);
        }
    }
    let total = snippet.iterations * snippet.branches;
    total as f64 * cycles_per_branch + fu.mispredicts() as f64 * mispredict_penalty
}

/// Runs the same snippet at every `alignment` in `bases`, returning
/// `(best_cycles, worst_cycles)`.
pub fn alignment_spread(snippet: Snippet, bases: &[u64], predictor_slots: usize) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut worst = 0.0f64;
    for &base in bases {
        let c = run_snippet(snippet, base, predictor_slots, 1.0, 2.0);
        best = best.min(c);
        worst = worst.max(c);
    }
    (best, worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snippet sized so that some load addresses alias its branches in
    /// the predictor and others do not: 64 branches in a 64-entry table.
    fn snippet() -> Snippet {
        Snippet { branches: 64, spacing: 256, iterations: 1_000 }
    }

    #[test]
    fn friendly_alignment_predicts_after_warmup() {
        // spacing 256 bytes = 64 words: with 64 entries, index = (pc>>2)%64
        // gives every branch... the same slot. Use spacing 4 instead:
        // consecutive slots, no aliasing.
        let s = Snippet { branches: 64, spacing: 4, iterations: 1_000 };
        let cycles = run_snippet(s, 0, 64, 1.0, 2.0);
        // Only the first iteration mispredicts.
        let ideal = (64_000 + 64 * 2) as f64;
        assert!((cycles - ideal).abs() < 1e-9, "cycles {cycles}");
    }

    #[test]
    fn aliasing_alignment_thrashes_forever() {
        // All 64 branches land on one predictor slot.
        let s = snippet();
        let cycles = run_snippet(s, 0, 64, 1.0, 2.0);
        // Every transfer mispredicts: 64k branches + 64k penalties.
        assert!(cycles > 64_000.0 * 2.9, "cycles {cycles}");
    }

    #[test]
    fn identical_code_three_x_spread_across_load_addresses() {
        // Kushman's up-to-3x: the same loop, different load addresses.
        let fast = Snippet { branches: 64, spacing: 4, iterations: 1_000 };
        let slow = snippet(); // same work, layout aliases
        let c_fast = run_snippet(fast, 0, 64, 1.0, 2.0);
        let c_slow = run_snippet(slow, 0, 64, 1.0, 2.0);
        let ratio = c_slow / c_fast;
        assert!(ratio > 2.5 && ratio < 3.5, "ratio {ratio}");
    }

    #[test]
    fn alignment_spread_is_wide() {
        let s = snippet();
        let bases: Vec<u64> = (0..16).map(|i| i * 4).collect();
        let (best, worst) = alignment_spread(s, &bases, 64);
        assert!(best <= worst);
        // Aliasing is total at any base for this snippet (spacing is a
        // multiple of the table span), so best == worst here; contrast
        // against the friendly layout instead.
        let friendly = Snippet { branches: 64, spacing: 4, iterations: 1_000 };
        let (fb, _) = alignment_spread(friendly, &bases, 64);
        assert!(worst / fb > 2.5, "spread {}", worst / fb);
    }

    #[test]
    fn predictor_counts_are_consistent() {
        let mut fu = FetchUnit::new(8);
        assert!(!fu.transfer(0, 16)); // cold miss
        assert!(fu.transfer(0, 16)); // learned
        assert!(!fu.transfer(0, 32)); // target changed
        assert_eq!(fu.hits(), 1);
        assert_eq!(fu.mispredicts(), 2);
    }
}
