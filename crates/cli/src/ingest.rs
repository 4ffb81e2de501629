//! Byte-level line ingest: split the reader's own buffer on `b'\n'`, trim
//! and parse each line in place, and hand the values on in fixed-size
//! chunks. No line becomes a `String`; only a line that straddles two
//! refills of the reader is copied, into one reused carry buffer.
//!
//! The grammar is that of `BufRead::lines()` + `str::trim` + `str::parse`,
//! except that a line that is not UTF-8 counts as unparseable instead of
//! ending the run.
//!
//! The sharded mode parses on its workers instead: [`cut_lines`] only cuts
//! the input into [`LineBatch`]es of whole lines, and each shard worker
//! runs [`ingest`] over the bytes of the batches it is dealt.

use std::cell::RefCell;
use std::io::{self, BufRead};

use mrl_core::{OrderedF64, UnknownN};
use mrl_parallel::{ShardBatch, DEFAULT_SHARD_BATCH};

/// Values per sink call in the bulk and `--every` modes, so a replay of
/// the input in `CHUNK`-value batches reproduces a bulk run.
pub(crate) const CHUNK: usize = 1024;

/// The carry buffer shrinks back to this after a longer straddling line.
const CARRY_KEEP: usize = 64 * 1024;

/// A line batch's byte buffer shrinks back to this (64 bytes a line)
/// after a batch that held a very long line.
const BATCH_KEEP: usize = DEFAULT_SHARD_BATCH * 64;

/// A value type the CLI can stream (`Send + 'static` so values can cross
/// into the sharded pipeline's worker threads).
pub(crate) trait CliValue: Ord + Clone + Send + 'static {
    /// Parse one trimmed line; `None` if it is not a value. Equals
    /// `str::parse` on UTF-8 input.
    fn parse(line: &[u8]) -> Option<Self>;
    fn render(&self) -> String;
    /// Run `f` on the calling thread's value scratch, so a shard worker
    /// parses every batch it is dealt into one buffer.
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R;
}

thread_local! {
    static I64_SCRATCH: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };
    static F64_SCRATCH: RefCell<Vec<OrderedF64>> = const { RefCell::new(Vec::new()) };
}

impl CliValue for i64 {
    fn parse(line: &[u8]) -> Option<Self> {
        parse_i64(line)
    }
    fn render(&self) -> String {
        self.to_string()
    }
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R {
        I64_SCRATCH.with_borrow_mut(f)
    }
}

impl CliValue for OrderedF64 {
    fn parse(line: &[u8]) -> Option<Self> {
        let s = std::str::from_utf8(line).ok()?;
        s.parse::<f64>().ok().and_then(OrderedF64::new)
    }
    fn render(&self) -> String {
        self.get().to_string()
    }
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R {
        F64_SCRATCH.with_borrow_mut(f)
    }
}

/// `str::parse::<i64>` over bytes: an optional `+` or `-`, then one or
/// more ASCII digits (leading zeros allowed); `None` on any other byte and
/// on overflow.
fn parse_i64(bytes: &[u8]) -> Option<i64> {
    let (negative, digits) = match bytes {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        _ => (false, bytes),
    };
    if digits.is_empty() {
        return None;
    }
    let mut magnitude = 0u64;
    for &b in digits {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        magnitude = magnitude.checked_mul(10)?.checked_add(u64::from(digit))?;
    }
    if negative {
        0i64.checked_sub_unsigned(magnitude)
    } else {
        i64::try_from(magnitude).ok()
    }
}

/// The ASCII bytes `char::is_whitespace` accepts. `u8::is_ascii_whitespace`
/// leaves out the vertical tab `\x0B`, which `str::trim` strips.
fn is_space(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// `line` without leading and trailing [`is_space`] bytes.
fn trim_space(line: &[u8]) -> &[u8] {
    let start = line
        .iter()
        .position(|&b| !is_space(b))
        .unwrap_or(line.len());
    let end = line
        .iter()
        .rposition(|&b| !is_space(b))
        .map_or(start, |i| i + 1);
    &line[start..end]
}

/// What one input line holds.
enum Line<T> {
    Blank,
    Value(T),
    Junk,
}

/// Read one line as `str::trim` then `str::parse` would, with a line that
/// is not UTF-8 as junk. A value parses straight from the ASCII-trimmed
/// bytes: both parsers accept only ASCII, so a line they accept has
/// nothing more for `str::trim` to strip. Only a failed line with a byte
/// ≥ 0x80 is decoded, so that Unicode whitespace (NBSP, NEL, …) trims too.
fn parse_line<T: CliValue>(line: &[u8]) -> Line<T> {
    let line = trim_space(line);
    if line.is_empty() {
        return Line::Blank;
    }
    if let Some(v) = T::parse(line) {
        return Line::Value(v);
    }
    if line.is_ascii() {
        return Line::Junk;
    }
    match std::str::from_utf8(line).map(str::trim) {
        Ok("") => Line::Blank,
        Ok(s) => T::parse(s.as_bytes()).map_or(Line::Junk, Line::Value),
        Err(_) => Line::Junk,
    }
}

/// Index of the first `b'\n'` in `bytes`, eight bytes per step: the
/// zero-byte test on `word ^ 0x0a0a…` can mark a byte only above the first
/// true match (by a borrow), so the lowest marked byte is exact.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    const NEWLINES: u64 = 0x0a0a_0a0a_0a0a_0a0a;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for w in &mut words {
        let x = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(at + zeros.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder();
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// Read `input` to its end and parse one value per non-blank line, handing
/// the values to `sink` in input order, `chunk` at a time (the last chunk
/// may be shorter). `values` is the caller's scratch for those chunks; it
/// is left empty. Blank lines are ignored; returns how many non-blank lines
/// did not parse.
pub(crate) fn ingest<T: CliValue, R: BufRead>(
    mut input: R,
    values: &mut Vec<T>,
    chunk: usize,
    mut sink: impl FnMut(&[T]) -> io::Result<()>,
) -> io::Result<u64> {
    let mut skipped = 0u64;
    let mut on_line = |line: &[u8]| -> io::Result<()> {
        match parse_line(line) {
            Line::Blank => {}
            Line::Value(v) => {
                values.push(v);
                if values.len() == chunk {
                    sink(values)?;
                    values.clear();
                }
            }
            Line::Junk => skipped += 1,
        }
        Ok(())
    };
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let buf = match input.fill_buf() {
            Ok([]) => break,
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let len = buf.len();
        let mut rest = buf;
        while let Some(nl) = find_newline(rest) {
            if carry.is_empty() {
                on_line(&rest[..nl])?;
            } else {
                carry.extend_from_slice(&rest[..nl]);
                on_line(&carry)?;
                carry.clear();
                carry.shrink_to(CARRY_KEEP);
            }
            rest = &rest[nl + 1..];
        }
        carry.extend_from_slice(rest);
        input.consume(len);
    }
    on_line(&carry)?;
    if !values.is_empty() {
        sink(values)?;
        values.clear();
    }
    Ok(skipped)
}

/// Whole input lines bound for one shard worker, which parses them there:
/// the sharded producer only cuts bytes.
#[derive(Debug, Default)]
pub(crate) struct LineBatch {
    /// The lines, each ending in `\n` but possibly the input's last.
    bytes: Vec<u8>,
    /// How many lines `bytes` holds.
    lines: usize,
}

impl LineBatch {
    /// Append `span` to the batch's bytes. A fresh buffer is allocated
    /// once, at `hint` (the previous batch's byte length), so it is not
    /// grown by repeated doubling; a batch longer than that grows exactly
    /// to fit, and past twice `hint` (a very long line) by doubling, which
    /// keeps the copying linear.
    fn append(&mut self, span: &[u8], hint: usize) {
        let len = self.bytes.len();
        let need = len + span.len();
        if need > self.bytes.capacity() {
            let want = need.max(hint);
            if want <= 2 * hint {
                self.bytes.reserve_exact(want - len);
            } else {
                self.bytes.reserve(want - len);
            }
        }
        self.bytes.extend_from_slice(span);
    }
}

impl<T: CliValue> ShardBatch<T> for LineBatch {
    fn items(&self) -> usize {
        self.lines
    }

    /// Parse the batch with [`ingest`] into the worker's scratch and hand
    /// all its values to the sketch in **one** `insert_batch`: above
    /// sampling rate 1 the sketch is not invariant to how inserts are
    /// chunked, and a batch of valid lines must feed exactly as the
    /// `Vec<T>` batch of its values would.
    fn feed(&mut self, sketch: &mut UnknownN<T>) -> u64 {
        let parsed = T::with_scratch(|values| {
            ingest(&self.bytes[..], values, usize::MAX, |values| {
                sketch.insert_batch(values);
                Ok(())
            })
        });
        // A byte slice reads without error and the sink never fails.
        parsed.unwrap_or_default()
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.bytes.shrink_to(BATCH_KEEP);
        self.lines = 0;
    }
}

/// The length of the longest prefix of `bytes` with at most `want`
/// newlines (it ends just past the `want`-th, if there is one), and how
/// many newlines it holds.
fn take_lines(bytes: &[u8], want: usize) -> (usize, usize) {
    let (mut end, mut found) = (0, 0);
    while found < want {
        match find_newline(&bytes[end..]) {
            Some(nl) => {
                end += nl + 1;
                found += 1;
            }
            None => return (bytes.len(), found),
        }
    }
    (end, found)
}

/// Cut `input` into batches of [`DEFAULT_SHARD_BATCH`] whole lines, copied
/// out of the reader's own buffer, without parsing them. Fills `batch`,
/// hands each full one to `emit` and goes on with the batch `emit`
/// returns; the input's last lines go out as a shorter batch, whose final
/// line may lack its newline.
pub(crate) fn cut_lines<R: BufRead>(
    mut input: R,
    mut batch: LineBatch,
    mut emit: impl FnMut(LineBatch) -> io::Result<LineBatch>,
) -> io::Result<()> {
    let mut hint = 0;
    loop {
        let buf = match input.fill_buf() {
            Ok([]) => break,
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let len = buf.len();
        let mut rest = buf;
        while !rest.is_empty() {
            let (end, found) = take_lines(rest, DEFAULT_SHARD_BATCH - batch.lines);
            batch.append(&rest[..end], hint);
            batch.lines += found;
            rest = &rest[end..];
            if batch.lines == DEFAULT_SHARD_BATCH {
                hint = batch.bytes.len();
                batch = emit(batch)?;
            }
        }
        input.consume(len);
    }
    if let Some(&last) = batch.bytes.last() {
        if last != b'\n' {
            batch.lines += 1;
        }
        emit(batch)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use proptest::prelude::*;

    use super::*;

    /// The grammar the byte path must keep: `lines()`, `str::trim`,
    /// `str::parse`, with a line that is not UTF-8 counted as skipped.
    fn reference<T>(input: &[u8], parse: fn(&str) -> Option<T>) -> (Vec<T>, u64) {
        let (mut values, mut skipped) = (Vec::new(), 0);
        for line in input.lines() {
            match line {
                Ok(line) if line.trim().is_empty() => {}
                Ok(line) => match parse(line.trim()) {
                    Some(v) => values.push(v),
                    None => skipped += 1,
                },
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    skipped += 1;
                }
            }
        }
        (values, skipped)
    }

    /// Run [`ingest`] over `input` read `capacity` bytes per refill;
    /// returns the chunks the sink saw and the skipped count.
    fn chunks_of<T: CliValue>(input: &[u8], capacity: usize) -> (Vec<Vec<T>>, u64) {
        let mut chunks = Vec::new();
        let reader = BufReader::with_capacity(capacity, input);
        let skipped = ingest(reader, &mut Vec::new(), CHUNK, |c: &[T]| {
            chunks.push(c.to_vec());
            Ok(())
        })
        .expect("reading a slice cannot fail");
        (chunks, skipped)
    }

    fn check<T: CliValue + std::fmt::Debug>(input: &[u8], parse: fn(&str) -> Option<T>) {
        let (values, skipped) = reference(input, parse);
        let expected: Vec<Vec<T>> = values.chunks(CHUNK).map(<[T]>::to_vec).collect();
        for capacity in 1..=17 {
            let (chunks, got_skipped) = chunks_of::<T>(input, capacity);
            assert_eq!(chunks, expected, "capacity {capacity}");
            assert_eq!(got_skipped, skipped, "capacity {capacity}");
        }
    }

    const BODIES: &[&[u8]] = &[
        b"",
        b"0",
        b"007",
        b"+7",
        b"-12",
        b"-",
        b"+",
        b"--5",
        b"+-5",
        b"9223372036854775807",
        b"9223372036854775808",
        b"-9223372036854775808",
        b"-9223372036854775809",
        b"1.5",
        b"-0.25e3",
        b"NaN",
        b"inf",
        b"-inf",
        b"junk",
        b"1 2",
        b"\xff",
        b"1\xff",
        b"\xc2",
        "\u{a0}".as_bytes(),
        "\u{85}5".as_bytes(),
        "١".as_bytes(),
    ];
    const PADS: &[&[u8]] = &[
        b"",
        b" ",
        b"\t",
        b"\x0B",
        b"\x0C",
        b"\r",
        "\u{a0}".as_bytes(),
        b" \x0B ",
    ];
    const ENDS: &[&[u8]] = &[b"\n", b"\r\n", b"\n\n", b" \n"];

    /// One input line per `(body, number, pads, end)`: a body from
    /// [`BODIES`] or, past its end, `number` in decimal, padded on each
    /// side by one of [`PADS`].
    fn render(lines: &[(usize, i64, usize, usize)], final_newline: bool) -> Vec<u8> {
        let mut out = Vec::new();
        for &(body, number, pads, end) in lines {
            out.extend_from_slice(PADS[pads % PADS.len()]);
            match BODIES.get(body) {
                Some(b) => out.extend_from_slice(b),
                None => out.extend_from_slice(number.to_string().as_bytes()),
            }
            out.extend_from_slice(PADS[pads / PADS.len()]);
            out.extend_from_slice(ENDS[end]);
        }
        if !final_newline && out.last() == Some(&b'\n') {
            out.pop();
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ingest_matches_lines_trim_parse_at_every_refill_size(
            lines in prop_vec((0usize..2 * BODIES.len(), any::<i64>(), 0usize..64, 0usize..4), 0..2500),
            final_newline in any::<bool>(),
        ) {
            let input = render(&lines, final_newline);
            check::<i64>(&input, |s| s.parse().ok());
            check::<OrderedF64>(&input, |s| s.parse().ok().and_then(OrderedF64::new));
        }

        #[test]
        fn parse_i64_equals_str_parse_on_ascii(
            bytes in prop_vec(0usize..16, 0..24),
            number in any::<i64>(),
            zeros in 0usize..4,
        ) {
            let s: String = bytes.iter().map(|&i| b"0123456789+- a9"[i % 15] as char).collect();
            prop_assert_eq!(parse_i64(s.as_bytes()), s.parse::<i64>().ok(), "{:?}", s);
            let padded = format!("{}{}", "0".repeat(zeros), number.unsigned_abs());
            for s in [padded.clone(), format!("-{padded}"), format!("+{padded}")] {
                prop_assert_eq!(parse_i64(s.as_bytes()), s.parse::<i64>().ok(), "{:?}", s);
            }
        }
    }

    /// Cut `input` read `capacity` bytes per refill; returns each batch's
    /// bytes and line count.
    fn batches_of(input: &[u8], capacity: usize) -> Vec<(Vec<u8>, usize)> {
        let mut batches = Vec::new();
        let reader = BufReader::with_capacity(capacity, input);
        cut_lines(reader, LineBatch::default(), |batch| {
            batches.push((batch.bytes.clone(), batch.lines));
            Ok(LineBatch::default())
        })
        .expect("reading a slice cannot fail");
        batches
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn cut_lines_emits_the_input_in_whole_4096_line_batches(
            lines in prop_vec((0usize..2 * BODIES.len(), any::<i64>(), 0usize..64, 0usize..4), 0..10_000),
            final_newline in any::<bool>(),
        ) {
            let input = render(&lines, final_newline);
            let newlines = |b: &[u8]| b.iter().filter(|&&c| c == b'\n').count();
            for capacity in 1..=17 {
                let batches = batches_of(&input, capacity);
                let joined: Vec<u8> = batches.iter().flat_map(|(b, _)| b.iter().copied()).collect();
                prop_assert_eq!(&joined, &input, "capacity {}", capacity);
                let Some(((last, last_lines), full)) = batches.split_last() else {
                    prop_assert!(input.is_empty());
                    continue;
                };
                for (bytes, lines) in full {
                    prop_assert_eq!(newlines(bytes), DEFAULT_SHARD_BATCH);
                    prop_assert_eq!(*lines, DEFAULT_SHARD_BATCH);
                }
                prop_assert!(!last.is_empty() && newlines(last) <= DEFAULT_SHARD_BATCH);
                let unterminated = usize::from(last.last() != Some(&b'\n'));
                prop_assert_eq!(*last_lines, newlines(last) + unterminated);
            }
        }
    }

    #[test]
    fn parse_i64_edge_cases_equal_str_parse() {
        for s in [
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "+9223372036854775808",
            "+9223372036854775807",
            "18446744073709551616",
            "-18446744073709551616",
            "+",
            "-",
            "--5",
            "+-5",
            "-+5",
            "007",
            "-007",
            "+0",
            "-0",
            "",
            " 1",
            "1 ",
            "0x10",
        ] {
            assert_eq!(parse_i64(s.as_bytes()), s.parse::<i64>().ok(), "{s:?}");
        }
    }

    #[test]
    fn is_space_is_char_is_whitespace_on_ascii() {
        for b in 0..0x80u8 {
            assert_eq!(is_space(b), char::from(b).is_whitespace(), "{b:#04x}");
        }
    }

    #[test]
    fn find_newline_equals_position() {
        let mut bytes = [b'x'; 40];
        assert_eq!(find_newline(&bytes), None);
        for at in (0..40).rev() {
            bytes[at] = b'\n';
            for start in 0..=at {
                let s = &bytes[start..];
                assert_eq!(find_newline(s), s.iter().position(|&b| b == b'\n'));
            }
            // Bytes one off '\n' must not match (borrow and carry edges).
            bytes[at] = [0x0b, 0x09, 0x8a, 0x00][at % 4];
        }
        assert_eq!(find_newline(&bytes), None);
    }
}
