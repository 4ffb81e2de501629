//! The correctness gate: every reported answer against the exact rank of
//! the generated input.

/// One reported answer and whether it held.
#[derive(Clone, Debug, PartialEq)]
pub struct Checked {
    /// Length of the prefix the answer was reported over.
    pub n: usize,
    /// The quantile asked for.
    pub phi: f64,
    /// The answer as the program rendered it.
    pub value: String,
    /// Distance in ranks from `φ·n` to the nearest rank the answer holds.
    pub rank_error: f64,
    /// Whether `rank_error ≤ ε·n` (an answer that is not an input value
    /// fails).
    pub ok: bool,
}

/// Check one answer against `prefix`: the value holds 1-based ranks
/// `lt+1 ..= le` of the sorted prefix, and passes when one of them lies
/// within `ε·n` of `φ·n`.
pub fn check_answer<T: Ord>(
    prefix: &[T],
    phi: f64,
    value: &T,
    rendered: &str,
    epsilon: f64,
) -> Checked {
    let lt = prefix.iter().filter(|x| *x < value).count();
    let eq = prefix.iter().filter(|x| *x == value).count();
    let n = prefix.len() as f64;
    let target = phi * n;
    let (first, last) = ((lt + 1) as f64, (lt + eq) as f64);
    let rank_error = if eq == 0 {
        f64::INFINITY
    } else if target < first {
        first - target
    } else if target > last {
        target - last
    } else {
        0.0
    };
    Checked {
        n: prefix.len(),
        phi,
        value: rendered.to_string(),
        rank_error,
        ok: rank_error <= epsilon * n,
    }
}
