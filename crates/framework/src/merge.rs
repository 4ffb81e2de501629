//! Weighted merging and selection.
//!
//! `Collapse` and `Output` (§3.2–3.3) are both defined in terms of the same
//! thought experiment: make `w(Xᵢ)` copies of each element of buffer `Xᵢ`,
//! sort everything together, and pick elements at certain positions of the
//! combined sequence. As the paper notes, the copies never need to be
//! materialised. Instead of a heap-based k-way merge that visits (and
//! clones) every element, [`select_weighted`] advances in **runs**: at each
//! step it finds the source with the smallest head, gallops against the
//! runner-up's head to determine the maximal run of consecutive merge
//! output that source contributes, and then indexes any selection targets
//! falling inside the run directly — cloning only the selected elements.
//! With `c` sources and `t` targets this is `O((R + t)·c log k)` where
//! `R ≤ Σ|Xᵢ|` is the number of runs, and in the common cases (few
//! sources interleaving coarsely, or few targets) runs are long and the
//! merge skips nearly all of the input.
//!
//! The engine's own collapses never come here: their targets are an
//! arithmetic progression, which the spaced kernels in
//! [`crate::kernels`] consume directly. This walk serves `Output` and the
//! §6 coordinator.

/// One sorted input to a weighted merge: a slice of non-decreasing elements,
/// each representing `weight` input elements.
#[derive(Clone, Copy, Debug)]
pub struct WeightedSource<'a, T> {
    /// Sorted elements.
    pub data: &'a [T],
    /// Weight of every element in `data`.
    pub weight: u64,
}

impl<'a, T> WeightedSource<'a, T> {
    /// Construct a source; `weight` must be positive.
    pub fn new(data: &'a [T], weight: u64) -> Self {
        assert!(weight > 0, "source weight must be positive");
        Self { data, weight }
    }

    /// Weighted mass contributed by this source.
    ///
    /// Saturating: by construction Σ masses equals the stream length `n`,
    /// which fits u64, but a hostile caller constructing sources directly
    /// must not be able to wrap the accounting.
    pub fn mass(&self) -> u64 {
        (self.data.len() as u64).saturating_mul(self.weight)
    }
}

/// Total weighted mass of a set of sources.
pub fn total_mass<T>(sources: &[WeightedSource<'_, T>]) -> u64 {
    sources.iter().map(WeightedSource::mass).sum()
}

/// Select the elements at 1-indexed weighted positions `targets` (sorted
/// non-decreasing) of the logical sorted-with-multiplicity concatenation of
/// `sources`.
///
/// Returns one element per target (duplicates allowed: several targets may
/// fall on the same heavy element).
///
/// # Panics
/// Panics if `targets` is not sorted, a target is zero, or a target exceeds
/// the total mass.
// panic-free: the entry asserts are the documented precondition contract
// (see # Panics); past them every index is invariant-protected — pos[i] <
// data.len() loop guards, run offsets bounded by run_mass, windows(2)
// slices are exactly length 2.
// arith: cum accumulates source masses and never exceeds `mass`, itself a
// u64 computed saturating; run_mass ≤ mass for the same reason.
pub fn select_weighted<T: Ord + Clone>(
    sources: &[WeightedSource<'_, T>],
    targets: &[u64],
) -> Vec<T> {
    let mut out = Vec::with_capacity(targets.len());
    let (Some(&first), Some(&last)) = (targets.first(), targets.last()) else {
        return out;
    };
    let mass = total_mass(sources);
    assert!(
        targets.windows(2).all(|w| w[0] <= w[1]),
        "targets must be sorted"
    );
    assert!(first >= 1, "weighted positions are 1-indexed");
    assert!(last <= mass, "target {last} exceeds total mass {mass}");

    if let [s] = sources {
        // A single source is one weighted run: pure index arithmetic.
        out.extend(
            targets
                .iter()
                .map(|&t| s.data[((t - 1) / s.weight) as usize].clone()),
        );
        return out;
    }

    // pos[i]: first unconsumed index of sources[i]. Ties between sources
    // are broken by source index (the lower index merges first), matching
    // the ordering a (value, source, position) heap would produce.
    let mut pos = vec![0usize; sources.len()];
    let mut cum: u64 = 0;
    let mut ti = 0usize;
    while ti < targets.len() {
        // One scan finds both the source whose head merges next (`j`) and
        // the runner-up (`runner`): the smallest head among the others,
        // lowest index on ties. Only the runner-up can end j's run —
        // every other head is no smaller — so a single galloping search
        // against it replaces one search per source.
        let mut j = usize::MAX;
        let mut runner = usize::MAX;
        for (i, s) in sources.iter().enumerate() {
            if pos[i] >= s.data.len() {
                continue;
            }
            if j == usize::MAX || s.data[pos[i]] < sources[j].data[pos[j]] {
                runner = j;
                j = i;
            } else if runner == usize::MAX || s.data[pos[i]] < sources[runner].data[pos[runner]] {
                runner = i;
            }
        }
        assert!(j != usize::MAX, "ran out of mass before all targets");
        // Maximal run: consecutive elements of source j that all merge
        // before the runner-up's head. The tie-break direction depends on
        // which side of j the runner-up sits: a lower-indexed runner-up
        // merges equal values first.
        let sub = &sources[j].data[pos[j]..];
        let run = if runner == usize::MAX {
            sub.len()
        } else {
            let head = &sources[runner].data[pos[runner]];
            if runner < j {
                gallop_limit(sub, |v| v < head)
            } else {
                gallop_limit(sub, |v| v <= head)
            }
        };
        debug_assert!(run >= 1, "the minimal head always yields a run");
        let w = sources[j].weight;
        let run_mass = run as u64 * w;
        // Targets inside the run index it directly: position `cum + q`
        // lands on run element `(q - 1) / w`.
        while ti < targets.len() && targets[ti] <= cum + run_mass {
            let offset = ((targets[ti] - cum - 1) / w) as usize;
            out.push(sub[offset].clone());
            ti += 1;
        }
        cum += run_mass;
        pos[j] += run;
    }
    out
}

/// First index of `sub` where `pred` fails (`sub` is partitioned: all
/// passing elements precede all failing ones), found by exponential search
/// from the front. Equivalent to `sub.partition_point(pred)` but costs
/// `O(log r)` for answer `r` instead of `O(log len)` — the merge's runs
/// are usually short, the suffix long.
// panic-free: sub[hi] is guarded by hi < sub.len() on the same condition;
// lo ≤ hi/2 + 1 ≤ end ≤ sub.len() keeps the range slice in bounds.
fn gallop_limit<T>(sub: &[T], pred: impl Fn(&T) -> bool) -> usize {
    if sub.first().is_none_or(|v| !pred(v)) {
        return 0;
    }
    // Invariant: pred holds at `hi / 2`; first failure lies in
    // `[hi / 2 + 1, min(hi, len)]`.
    let mut hi = 1usize;
    while hi < sub.len() && pred(&sub[hi]) {
        hi <<= 1;
    }
    let lo = hi / 2 + 1;
    let end = hi.min(sub.len());
    lo + sub[lo..end].partition_point(|v| pred(v))
}

/// The `k` selection positions of a `Collapse` whose output weight is `w`
/// (§3.2).
///
/// * `w` odd: positions `j·w + (w+1)/2` for `j = 0..k`.
/// * `w` even: positions `j·w + w/2` (low phase) or `j·w + (w+2)/2` (high
///   phase); the caller alternates `high` between successive even-weight
///   collapses so the ±½ rounding bias cancels.
pub fn collapse_targets(k: usize, w: u64, high: bool) -> Vec<u64> {
    let offset = collapse_first_target(w, high);
    (0..k as u64).map(|j| j * w + offset).collect()
}

/// The first selection position of a `Collapse` with output weight `w`
/// (§3.2): the phase offset of the arithmetic progression the targets
/// form. The spaced kernels consume `(first, spacing = w, count = k)`
/// directly instead of a materialised target vector.
pub fn collapse_first_target(w: u64, high: bool) -> u64 {
    assert!(w > 0, "collapse output weight must be positive");
    if w % 2 == 1 {
        w.div_ceil(2)
    } else if high {
        (w + 2) / 2
    } else {
        w / 2
    }
}

/// The weighted position selected by `Output` for quantile `φ` over total
/// mass `s` (§3.3): `⌈φ·s⌉`, clamped into `[1, s]`.
pub fn output_position(phi: f64, s: u64) -> u64 {
    assert!((0.0..=1.0).contains(&phi), "phi must lie in [0, 1]");
    assert!(s > 0, "cannot select from an empty sequence");
    let raw = (phi * s as f64).ceil();
    if raw < 1.0 {
        1
    } else if raw >= s as f64 {
        s
    } else {
        raw as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: materialise all copies and index directly.
    fn select_brute<T: Ord + Clone>(sources: &[WeightedSource<'_, T>], targets: &[u64]) -> Vec<T> {
        let mut all: Vec<T> = Vec::new();
        for s in sources {
            for v in s.data {
                for _ in 0..s.weight {
                    all.push(v.clone());
                }
            }
        }
        all.sort();
        targets
            .iter()
            .map(|&t| all[(t - 1) as usize].clone())
            .collect()
    }

    #[test]
    fn matches_brute_force_on_small_inputs() {
        let a = vec![1, 4, 7, 9];
        let b = vec![2, 2, 8];
        let c = vec![5];
        let sources = [
            WeightedSource::new(&a, 3),
            WeightedSource::new(&b, 1),
            WeightedSource::new(&c, 5),
        ];
        let mass = total_mass(&sources);
        assert_eq!(mass, 4 * 3 + 3 + 5);
        let targets: Vec<u64> = (1..=mass).collect();
        assert_eq!(
            select_weighted(&sources, &targets),
            select_brute(&sources, &targets)
        );
    }

    #[test]
    fn single_target_median() {
        let a = vec![10, 20, 30];
        let sources = [WeightedSource::new(&a, 2)];
        assert_eq!(select_weighted(&sources, &[3]), vec![20]);
        assert_eq!(select_weighted(&sources, &[4]), vec![20]);
        assert_eq!(select_weighted(&sources, &[6]), vec![30]);
    }

    #[test]
    fn repeated_targets_yield_duplicates() {
        let a = vec![5];
        let sources = [WeightedSource::new(&a, 4)];
        assert_eq!(select_weighted(&sources, &[1, 2, 4]), vec![5, 5, 5]);
    }

    #[test]
    fn empty_targets_empty_result() {
        let a = vec![1, 2];
        let sources = [WeightedSource::new(&a, 1)];
        assert!(select_weighted(&sources, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds total mass")]
    fn overlong_target_panics() {
        let a = vec![1, 2];
        let sources = [WeightedSource::new(&a, 1)];
        let _ = select_weighted(&sources, &[3]);
    }

    #[test]
    fn sparse_targets_over_large_sources_match_brute_force() {
        // Few targets, long interleaved runs: the skip path must agree with
        // the materialised reference.
        let a: Vec<u32> = (0..500).map(|i| i * 3).collect();
        let b: Vec<u32> = (0..300).map(|i| i * 5 + 1).collect();
        let c: Vec<u32> = (0..200).map(|i| i * 7 + 2).collect();
        let sources = [
            WeightedSource::new(&a, 4),
            WeightedSource::new(&b, 2),
            WeightedSource::new(&c, 9),
        ];
        let mass = total_mass(&sources);
        let targets: Vec<u64> = vec![1, 17, mass / 3, mass / 2, mass - 1, mass];
        assert_eq!(
            select_weighted(&sources, &targets),
            select_brute(&sources, &targets)
        );
    }

    #[test]
    fn duplicate_values_across_sources_merge_deterministically() {
        // Heavily tied inputs: every position must match the reference,
        // which is insensitive to tie order because tied values are equal.
        let a = vec![5, 5, 5, 7, 7];
        let b = vec![5, 6, 7, 7];
        let c = vec![5, 5, 8];
        let sources = [
            WeightedSource::new(&a, 2),
            WeightedSource::new(&b, 3),
            WeightedSource::new(&c, 1),
        ];
        let mass = total_mass(&sources);
        let targets: Vec<u64> = (1..=mass).collect();
        assert_eq!(
            select_weighted(&sources, &targets),
            select_brute(&sources, &targets)
        );
    }

    #[test]
    fn collapse_targets_odd_weight() {
        // w = 3, k = 4: positions j*3 + 2.
        assert_eq!(collapse_targets(4, 3, false), vec![2, 5, 8, 11]);
        // `high` is ignored for odd weights.
        assert_eq!(collapse_targets(4, 3, true), vec![2, 5, 8, 11]);
    }

    #[test]
    fn collapse_targets_even_weight_alternate() {
        // w = 4, k = 3: low phase 2, 6, 10; high phase 3, 7, 11.
        assert_eq!(collapse_targets(3, 4, false), vec![2, 6, 10]);
        assert_eq!(collapse_targets(3, 4, true), vec![3, 7, 11]);
    }

    #[test]
    fn collapse_targets_stay_in_range() {
        for k in 1..8usize {
            for w in 1..10u64 {
                for high in [false, true] {
                    let t = collapse_targets(k, w, high);
                    assert!(t[0] >= 1);
                    assert!(*t.last().unwrap() <= k as u64 * w, "k={k} w={w}");
                }
            }
        }
    }

    #[test]
    fn output_position_basics() {
        assert_eq!(output_position(0.5, 100), 50);
        assert_eq!(output_position(0.0, 100), 1);
        assert_eq!(output_position(1.0, 100), 100);
        assert_eq!(output_position(0.501, 100), 51);
        assert_eq!(output_position(0.5, 1), 1);
    }

    #[test]
    fn output_position_huge_mass_is_clamped() {
        let s = u64::MAX / 2;
        let p = output_position(1.0, s);
        assert_eq!(p, s);
        assert!(output_position(0.9999999, s) <= s);
    }
}
