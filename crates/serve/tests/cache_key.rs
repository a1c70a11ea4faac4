//! Property tests for the deterministic cache key: the identity of a
//! job must not depend on JSON syntax accidents (key order, worker
//! count, engine-name aliases), or the result cache would miss on
//! equivalent requests — and, worse, it must depend on every semantic
//! field, or the cache would serve the wrong result.

use esp4ml_bench::request::{canonical_json, RunRequest, WorkloadKind};
use proptest::prelude::*;
use serde::{Map, Value};

/// Rebuilds a JSON tree with every object's keys inserted in an order
/// chosen by `pick` (a stream of pseudo-random choices).
fn shuffle_keys(value: &Value, pick: &mut impl FnMut(usize) -> usize) -> Value {
    match value {
        Value::Object(map) => {
            let mut entries: Vec<(String, Value)> = map
                .iter()
                .map(|(k, v)| (k.clone(), shuffle_keys(v, pick)))
                .collect();
            let mut out = Map::new();
            while !entries.is_empty() {
                let (k, v) = entries.remove(pick(entries.len()));
                out.insert(k, v);
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(|v| shuffle_keys(v, pick)).collect()),
        other => other.clone(),
    }
}

fn request_for(workload: WorkloadKind, frames: u64, config: usize) -> RunRequest {
    let mut r = RunRequest::new(workload);
    r.frames = frames;
    r.configs = vec![config];
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-tripping a request through JSON with every object's keys
    /// in a random order never changes the cache key.
    #[test]
    fn cache_key_is_invariant_under_key_reordering(
        seeds in proptest::collection::vec(0usize..1000, 16),
        frames in 1u64..32,
        config in 0usize..6,
        workload_pick in 0usize..3,
    ) {
        let workload = [WorkloadKind::Fig8, WorkloadKind::Fig7, WorkloadKind::Table1][workload_pick];
        let config = if matches!(workload, WorkloadKind::Table1) { config % 3 } else { config };
        let request = request_for(workload, frames, config);
        let value = serde_json::to_value(&request).expect("serializes");
        let mut cursor = 0usize;
        let mut pick = |n: usize| {
            let choice = seeds[cursor % seeds.len()] % n;
            cursor += 1;
            choice
        };
        let shuffled = shuffle_keys(&value, &mut pick);
        // Only count cases where the shuffle actually changed the byte
        // order — otherwise the property would hold vacuously.
        prop_assume!(
            serde_json::to_string(&value).expect("json")
                != serde_json::to_string(&shuffled).expect("json")
        );
        let reparsed: RunRequest =
            serde_json::from_value(shuffled.clone()).expect("round-trips");
        prop_assert_eq!(request.cache_key(), reparsed.cache_key());
        prop_assert_eq!(
            canonical_json(&value),
            canonical_json(&shuffled),
            "canonical form is order-free"
        );
    }

    /// The worker count, the `event-driven` alias and the retired
    /// `fork_prefix` field never influence the key; every semantic
    /// field does.
    #[test]
    fn cache_key_tracks_semantics_only(
        frames in 1u64..32,
        jobs in 0usize..9,
        config in 0usize..6,
    ) {
        let base = request_for(WorkloadKind::Fig8, frames, config);

        let mut jobs_differ = base.clone();
        jobs_differ.jobs = jobs;
        // Bodies written before prefix forking was removed still parse,
        // and the stale field does not split the cache.
        let mut retired = serde_json::to_value(&base).expect("serializes");
        if let Value::Object(map) = &mut retired {
            map.insert("fork_prefix".to_string(), Value::Bool(true));
        }
        let retired: RunRequest = serde_json::from_value(retired).expect("parses");
        let mut alias = base.clone();
        alias.engine = "event-driven".to_string();
        prop_assert_eq!(base.cache_key(), jobs_differ.cache_key());
        prop_assert_eq!(base.cache_key(), retired.cache_key());
        prop_assert_eq!(base.cache_key(), alias.cache_key());

        let mut other_frames = base.clone();
        other_frames.frames = frames + 1;
        let mut other_engine = base.clone();
        other_engine.engine = "naive".to_string();
        let mut other_config = base.clone();
        other_config.configs = vec![(config + 1) % 6];
        prop_assert_ne!(base.cache_key(), other_frames.cache_key());
        prop_assert_ne!(base.cache_key(), other_engine.cache_key());
        prop_assert_ne!(base.cache_key(), other_config.cache_key());
    }
}
