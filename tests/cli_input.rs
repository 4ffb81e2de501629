//! The `mrl-quantiles` input grammar as a table: each input runs through
//! the sharded driver with one, two and three shards and through the
//! per-element `--every` driver, and every mode must report the same value
//! count, skipped-line count and quantiles. The inputs are small enough, or
//! uniform enough, that the answers are exact.

use mrl_cli::{run, Args};

/// Quantiles every case reports: minimum, median, maximum.
const PHIS: [f64; 3] = [0.0, 0.5, 1.0];

struct Case {
    name: &'static str,
    float: bool,
    input: Vec<u8>,
    n: u64,
    skipped: u64,
    /// Rendered answers at [`PHIS`]; empty for an empty stream.
    answers: &'static [&'static str],
}

fn case(
    name: &'static str,
    input: impl Into<Vec<u8>>,
    n: u64,
    skipped: u64,
    answers: &'static [&'static str],
) -> Case {
    Case {
        name,
        float: false,
        input: input.into(),
        n,
        skipped,
        answers,
    }
}

fn cases() -> Vec<Case> {
    let mut junk_line = b"1\n".to_vec();
    junk_line.resize(2 + (1 << 20), b'x');
    junk_line.extend_from_slice(b"\n2\n");
    // Six line batches of the sharded mode: every shard parses hostile
    // lines, and three shards leave the last, partial batch on shard 2.
    let mut many_batches = Vec::new();
    for i in 0..5 * 4096 + 100 {
        let line: &[u8] = match i % 6 {
            0 => b"7\r\n",
            1 => b"\n",
            2 => b"junk\n",
            3 => b"\xff\n",
            4 => b" 7\x0B\n",
            _ => "\u{a0}7\n".as_bytes(),
        };
        many_batches.extend_from_slice(line);
    }
    vec![
        case("empty input", "", 0, 0, &[]),
        case("blank lines only", "\n \n\t\r\n\n", 0, 0, &[]),
        case("CRLF line ends", "3\r\n1\r\n2\r\n", 3, 0, &["1", "2", "3"]),
        case("vertical tab", "3\x0B\n\x0B1\n2\n", 3, 0, &["1", "2", "3"]),
        case(
            "NBSP padding",
            "\u{a0}5\u{a0}\n7\n\u{a0}\n",
            2,
            0,
            &["5", "5", "7"],
        ),
        Case {
            float: true,
            ..case(
                "NaN and infinities in --float mode",
                "NaN\ninf\n-inf\n1.5\n",
                3,
                1,
                &["-inf", "1.5", "inf"],
            )
        },
        case(
            "i64 range ends and one past each",
            "-9223372036854775808\n9223372036854775807\n\
             -9223372036854775809\n9223372036854775808\n0\n",
            3,
            2,
            &["-9223372036854775808", "0", "9223372036854775807"],
        ),
        case(
            "signs and no final newline",
            "+7\n-\n5",
            2,
            1,
            &["5", "5", "7"],
        ),
        case("a 1 MiB junk line", junk_line, 2, 1, &["1", "1", "2"]),
        case(
            "invalid UTF-8",
            &b"1\n\xff\n3\n\xc2\n"[..],
            2,
            2,
            &["1", "1", "3"],
        ),
        case(
            "hostile lines across several shard batches",
            many_batches,
            10_290,
            6_860,
            &["7", "7", "7"],
        ),
    ]
}

#[test]
fn every_driver_mode_reads_the_same_grammar() {
    let modes: [(&str, usize, u64); 4] = [
        ("--shards 1", 1, 0),
        ("--shards 2", 2, 0),
        ("--shards 3", 3, 0),
        ("--every 3", 1, 3),
    ];
    for c in cases() {
        for (mode, shards, report_every) in modes {
            let args = Args {
                phis: PHIS.to_vec(),
                float: c.float,
                shards,
                report_every,
                ..Args::default()
            };
            let mut out = Vec::new();
            let summary = run(&args, &c.input[..], &mut out)
                .unwrap_or_else(|e| panic!("{} under {mode}: {e}", c.name));
            let answers: Vec<&str> = summary.quantiles.iter().map(|(_, v)| v.as_str()).collect();
            let what = format!("{} under {mode}", c.name);
            assert_eq!(summary.n, c.n, "{what}: n");
            assert_eq!(summary.skipped, c.skipped, "{what}: skipped");
            assert_eq!(answers, c.answers, "{what}: answers");
            let out = String::from_utf8(out).expect("UTF-8 report");
            let skipped_note = format!("# skipped {} unparseable lines", c.skipped);
            assert_eq!(out.contains(&skipped_note), c.skipped > 0, "{what}: {out}");
            assert_eq!(out.contains("# empty input"), c.n == 0, "{what}: {out}");
        }
    }
}
