//! Cross-crate round trips: a generated world trace survives the binary
//! codec byte-for-byte, and detection over the decoded trace is identical.

use lumen6::prelude::*;
use lumen6::trace::codec::{decode, encode};

#[test]
fn world_trace_codec_roundtrip_and_detection_equality() {
    let mut cfg = FleetConfig::small();
    cfg.end_day = 10;
    let world = World::build(cfg);
    let trace = world.cdn_trace();

    let bytes = encode(&trace).expect("encodes");
    let back = decode(&bytes).expect("decodes");
    assert_eq!(trace, back);

    let a = detect(&trace, ScanDetectorConfig::paper(AggLevel::L64));
    let b = detect(&back, ScanDetectorConfig::paper(AggLevel::L64));
    assert_eq!(a.events, b.events);
}

#[test]
fn trace_writer_reader_file_path() {
    let mut cfg = FleetConfig::small();
    cfg.end_day = 3;
    let world = World::build(cfg);
    let trace = world.cdn_trace();

    let dir = std::env::temp_dir().join(format!("lumen6-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.l6tr");

    let mut w = TraceWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
    for r in &trace {
        w.append(r).unwrap();
    }
    w.finish().unwrap();

    let reader = TraceReader::new(std::fs::File::open(&path).unwrap()).unwrap();
    let back: Result<Vec<_>, _> = reader.collect();
    assert_eq!(back.unwrap(), trace);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_trace_fails_loudly_not_wrongly() {
    let mut cfg = FleetConfig::small();
    cfg.end_day = 2;
    let world = World::build(cfg);
    let trace = world.cdn_trace();
    let mut bytes = encode(&trace).expect("encodes");

    // Flip a byte in the middle: either a decode error surfaces or the
    // decoded stream differs from the original — silent agreement would
    // mean corruption goes unnoticed.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    match decode(&bytes) {
        Err(_) => {}
        Ok(back) => assert_ne!(back, trace),
    }

    // Truncation: must error, never panic.
    let cut = &bytes[..bytes.len() / 3];
    let _ = decode(cut);
}

#[test]
fn multi_level_single_pass_matches_per_level_passes_on_fleet_traffic() {
    let mut cfg = FleetConfig::small();
    cfg.end_day = 14;
    let world = World::build(cfg);
    let trace = world.cdn_trace();
    let (clean, _) = ArtifactFilter::default().filter(&trace);

    let multi = lumen6::detect::multi::detect_multi(
        &clean,
        &AggLevel::PAPER_LEVELS,
        ScanDetectorConfig::default(),
    );
    for lvl in AggLevel::PAPER_LEVELS {
        let single = detect(&clean, ScanDetectorConfig::paper(lvl));
        assert_eq!(multi[&lvl].scans(), single.scans(), "{lvl}");
        assert_eq!(multi[&lvl].packets(), single.packets(), "{lvl}");
        assert_eq!(multi[&lvl].source_set(), single.source_set(), "{lvl}");
    }
}

#[test]
fn adaptive_ids_flags_as18_as_one_coarse_actor_on_fleet_traffic() {
    let mut cfg = FleetConfig::small();
    cfg.end_day = 28;
    let world = World::build(cfg);
    let trace = world.cdn_trace();
    let (clean, _) = ArtifactFilter::default().filter(&trace);

    let alerts = lumen6::detect::adaptive::AdaptiveIds::new(Default::default()).analyze(&clean);
    assert!(!alerts.is_empty());

    // The AS#18 /32 should surface as a coarse alert (its sources being one
    // address per /64, only aggregation reveals the actor in full).
    let as18 = world
        .fleet
        .truth
        .iter()
        .find(|t| t.rank == 18)
        .unwrap()
        .prefix;
    let coarse = alerts
        .iter()
        .find(|a| as18.contains(&a.prefix) && a.prefix.len() <= 48);
    assert!(
        coarse.is_some(),
        "expected a coarse AS#18 alert, got {:?}",
        alerts
            .iter()
            .filter(|a| as18.contains(&a.prefix))
            .collect::<Vec<_>>()
    );

    // AS#1's single /128 must alert as a /128 (never dragged coarser than
    // its own activity warrants), except when subsumed by nothing.
    let as1 = world.fleet.truth[0].prefix;
    assert!(alerts
        .iter()
        .any(|a| as1.contains(&a.prefix) && a.prefix.len() == 128));
}
