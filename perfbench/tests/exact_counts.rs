//! The counts the benchmark reports as exact repeat exactly between two
//! runs at one seed, and the workloads' correctness gates pass on a short
//! run (`cargo test --manifest-path perfbench/Cargo.toml`).

use aiio_perfbench::layers::{exact_counts, EXACT};
use aiio_perfbench::trace::Tracer;
use aiio_perfbench::{batch, http, Scale};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn exact_counts_repeat_at_one_seed() {
    let scale = Scale::tiny();
    let root = scratch("exact");
    let a = exact_counts(&root, 11, &scale).expect("first run");
    let b = exact_counts(&root, 11, &scale).expect("second run");
    let names: Vec<String> = a
        .names()
        .filter(|n| n.starts_with("explain.evals.") || EXACT.contains(n))
        .map(str::to_string)
        .collect();
    assert_eq!(names.len(), EXACT.len() + 5, "{names:?}");
    for name in &names {
        let (x, y) = (a.get(name).expect("a"), b.get(name).expect("b"));
        assert_eq!(x.to_bits(), y.to_bits(), "{name}: {x} vs {y}");
    }
    // One explanation evaluates f(x) plus one row per coalition.
    for kind in ["CatBoost", "LightGBM", "XGBoost", "MLP", "TabNet"] {
        let evals = a.get(&format!("explain.evals.{kind}")).expect("evals");
        assert!((1.0..=1025.0).contains(&evals), "{kind}: {evals}");
    }
    assert!(a.get("store.rows_moved_ratio").expect("moved") > 0.0);
}

#[test]
fn http_bodies_match_in_process_reports() {
    let scale = Scale::tiny();
    let setup = http::prepare(3, 1.0, &scale).expect("set-up");
    let outcomes = http::run_pass(&setup, &Tracer::off());
    assert_eq!(outcomes.len(), http::request_count(&scale, 1.0));
    assert!(outcomes.iter().all(http::Outcome::ok));
    let refs = http::references(&setup).expect("references");
    http::verify(&outcomes, &refs).expect("bodies match");
    let mut tampered = outcomes.clone();
    tampered[0].body.push(' ');
    assert!(http::verify(&tampered, &refs).is_err());
}

#[test]
fn batch_reports_match_one_at_a_time() {
    let scale = Scale::tiny();
    let setup = batch::prepare(5, &scale).expect("set-up");
    let pass = batch::run_pass(&setup, &scale, 5, 0.0, Some(2), &Tracer::off()).expect("pass");
    assert_eq!(pass.jobs(), 2 * scale.batch_size);
    assert_eq!(pass.checked, 4);
}
