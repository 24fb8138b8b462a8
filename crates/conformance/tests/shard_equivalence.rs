//! A representative matrix subset runs on the sharded fabric engine at
//! 1, 2, and 4 shards, and the full artifact digest (snapshots + delivery
//! log + golden trace) must be byte-identical at every shard count. The
//! shard count is an explicit simulation parameter, so one test process
//! covers the whole axis.

use conformance::runner::{run_fabric_sharded, sharded_digest};
use conformance::{matrix, Scenario};

/// One scenario per workload family plus a line topology and a faulted
/// run: enough shape diversity to cover the cut-edge, control-domain,
/// and forced-finalization paths without running the whole matrix three
/// times.
const SUBSET: &[&str] = &["hadoop_ecmp_cs", "graphx_flowlet_nocs", "memcache_ecmp_cs"];

fn digest_at(sc: &Scenario, shards: usize) -> u64 {
    let (run, trace) = run_fabric_sharded(sc, shards);
    sharded_digest(&run, &trace)
}

#[test]
fn matrix_subset_is_shard_count_invariant() {
    for name in SUBSET {
        let sc = Scenario::from_spec(matrix::spec(name)).expect("matrix spec parses");
        let reference = digest_at(&sc, 1);
        for shards in [2, 4] {
            assert_eq!(
                digest_at(&sc, shards),
                reference,
                "scenario `{name}` diverges at {shards} shards"
            );
        }
    }
}

/// A faulted, force-inducing scenario: device death mid-run exercises
/// exclusion and forced finalization across shard boundaries.
#[test]
fn faulted_scenario_is_shard_count_invariant() {
    let sc = Scenario::from_spec(
        "topo=leafspine;wl=hadoop;lb=ecmp;cs=1;mod=16;snaps=4;ival=5;fault=1@2;seed=0x51AD",
    )
    .expect("spec parses");
    let reference = digest_at(&sc, 1);
    for shards in [2, 4] {
        assert_eq!(
            digest_at(&sc, shards),
            reference,
            "faulted scenario diverges at {shards} shards"
        );
    }
}
