//! Journal format v3 integrity properties.
//!
//! The per-record checksum must make *any* single-byte flip anywhere in
//! a journal — header, record payload, or the checksum field itself —
//! detectable on read. The only flip that may parse successfully is one
//! that destroys the final newline: that turns the last line into
//! exactly the torn tail a crash leaves, which the parser is required
//! to drop (and account for) rather than reject. And an undamaged
//! journal must round-trip byte-identically through parse + re-render,
//! because `merge` and `reshard` rebuild journals from parsed records.

use irrnet_core::rng::SmallRng;
use irrnet_harness::journal::{
    fail_line, header_line, parse_journal, unit_line, CampaignHeader, JournalError,
};
use irrnet_harness::registry::Emit;
use irrnet_harness::shard::ShardSpec;

fn sample_journal() -> (CampaignHeader, String) {
    let header = CampaignHeader {
        quick: true,
        seeds: vec![0, 1],
        trials: 2,
        experiments: vec!["fig06".into()],
        schemes: None,
        unit_timeout_ms: Some(30_000),
        unit_retries: 1,
        audit: false,
        stream_stats: false,
        shard: Some(ShardSpec { index: 0, count: 2 }),
        argv: vec!["work".into(), "out".into(), "--shard".into(), "0/2".into()],
        labels: (0..6).map(|i| format!("u{i}")).collect(),
    };
    let emits = vec![
        Emit::Table("a\tb\n1\t2".into()),
        Emit::Csv { name: "x.csv".into(), content: "h\n0.5\n".into() },
        Emit::Column {
            csv: "p.csv".into(),
            title: "R = 0.5".into(),
            x_label: "destinations".into(),
            y_label: "latency (cycles)".into(),
            xs: vec![4.0, 8.0],
            scheme: irrnet_core::SchemeId::TREE,
            order: 1,
            ys: vec![Some(1234.5678901), None],
        },
        Emit::Config { kind: "sim".into(), canonical: "sim{flit=8}".into(), hash: 0xbeef },
    ];
    let text = format!(
        "{}{}{}{}{}",
        header_line(&header),
        unit_line(0, "u0", 42, &["topo{seed=0}".to_string()], &emits),
        unit_line(2, "u2", 7, &[], &[Emit::Table("t".into())]),
        fail_line(4, "u4", "timeout", "exceeded \"budget\"", 2),
        unit_line(5, "u5", 9, &[], &[Emit::Csv { name: "y.csv".into(), content: "k\n".into() }]),
    );
    // parse_journal checks structure, not shard ownership (that's the
    // merge/worker audit), so the record mix here only needs to exercise
    // every record kind and emit shape.
    (header, text)
}

/// Is this (position, flipped text) pair the one legal escape hatch —
/// the flip destroyed the final newline, so the last line reads as a
/// torn crash tail?
fn is_final_newline(text: &str, pos: usize) -> bool {
    pos == text.len() - 1
}

fn check_flip(text: &str, pos: usize, mask: u8) {
    let mut bytes = text.as_bytes().to_vec();
    bytes[pos] ^= mask;
    let Ok(flipped) = String::from_utf8(bytes) else {
        return; // invalid UTF-8: detected before parsing even starts
    };
    match parse_journal(&flipped) {
        Err(_) => {} // detected
        Ok(parsed) => {
            assert!(
                is_final_newline(text, pos),
                "undetected flip at byte {pos} (mask 0x{mask:02x}): parse succeeded \
                 with {} unit(s)",
                parsed.units.len()
            );
            // Torn-tail reclassification: the dropped bytes are the
            // whole final line, and they are accounted for.
            let last_line_len = text.len() - text[..text.len() - 1].rfind('\n').unwrap() - 1;
            assert_eq!(parsed.torn_bytes as usize, last_line_len);
            assert_eq!(parsed.valid_len as usize, text.len() - last_line_len);
        }
    }
}

#[test]
fn every_single_byte_flip_is_detected_or_torn_tail() {
    let (_, text) = sample_journal();
    // Exhaustive over positions with a low bit (content-preserving
    // class) and the high bit (UTF-8-breaking class).
    for pos in 0..text.len() {
        check_flip(&text, pos, 0x01);
        check_flip(&text, pos, 0x80);
    }
    // Random full-byte masks for broader coverage, seeded and
    // deterministic.
    let mut rng = SmallRng::seed_from_u64(0x1a7e6);
    for _ in 0..2000 {
        let pos = rng.gen_range(0..text.len());
        let mask = (rng.next_u64() % 255 + 1) as u8;
        check_flip(&text, pos, mask);
    }
}

#[test]
fn intact_journals_round_trip_byte_identically() {
    let (header, text) = sample_journal();
    let parsed = parse_journal(&text).unwrap();
    assert_eq!(parsed.torn_bytes, 0);
    assert_eq!(parsed.valid_len as usize, text.len());
    assert_eq!(parsed.header, header);
    assert_eq!(parsed.units.len(), 3);
    assert_eq!(parsed.failures.len(), 1);

    // Rebuild from the parsed records with the same builders merge and
    // reshard use: the bytes must match exactly (checksums included).
    let u = &parsed.units;
    let f = &parsed.failures[0];
    let rebuilt = format!(
        "{}{}{}{}{}",
        header_line(&parsed.header),
        unit_line(u[0].index, &u[0].label, u[0].ms, &u[0].cache, &u[0].emits),
        unit_line(u[1].index, &u[1].label, u[1].ms, &u[1].cache, &u[1].emits),
        fail_line(f.index, &f.label, &f.kind, &f.error, f.attempts),
        unit_line(u[2].index, &u[2].label, u[2].ms, &u[2].cache, &u[2].emits),
    );
    assert_eq!(rebuilt, text, "parse + re-serialize must be the identity");
}

#[test]
fn checksum_field_flips_are_themselves_detected() {
    // Target the checksum field explicitly: every byte of `"sum":"0x<16
    // hex>"` in the second line, all 255 masks.
    let (_, text) = sample_journal();
    let line2_start = text.find('\n').unwrap() + 1;
    for off in 0..28 {
        // `{"sum":"0x` + 16 hex + `",` = 28 bytes of integrity field.
        for mask in 1..=255u8 {
            let pos = line2_start + off;
            let mut bytes = text.as_bytes().to_vec();
            bytes[pos] ^= mask;
            let Ok(flipped) = String::from_utf8(bytes) else { continue };
            let err = parse_journal(&flipped).expect_err("checksum-field flip must fail");
            // Mid-file damage carries the line/offset diagnostics.
            if let JournalError::CorruptRecord { line, offset, .. } = err {
                assert_eq!(line, 2);
                assert_eq!(offset as usize, line2_start);
            }
        }
    }
}
