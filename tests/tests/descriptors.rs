//! Datatype-described I/O stays a descriptor from the workload builder to
//! the cache: paper-size BTIO builds one small strided run per call, and
//! running the strided workloads of the small suite never flattens one.

use dualpar_bench::{build_cluster, builtin_suite, Scale};
use dualpar_mpiio::{IoCall, Op, ProcessScript};
use dualpar_pfs::FileId;
use dualpar_workloads::Btio;

fn calls<'a>(
    scripts: impl IntoIterator<Item = &'a ProcessScript>,
) -> impl Iterator<Item = &'a IoCall> {
    scripts
        .into_iter()
        .flat_map(|s| &s.ops)
        .filter_map(|op| match op {
            Op::Io(c) => Some(c),
            _ => None,
        })
}

#[test]
fn paper_btio_builds_as_strided_runs() {
    let script = Btio::default().build(FileId(1));
    let (mut regions, mut bytes) = (0u64, 0u64);
    for c in calls(&script.ranks) {
        assert!(c.regions.is_strided(), "a BTIO call is not a strided run");
        assert!(!c.regions.is_flattened());
        regions += c.regions.len() as u64;
        bytes += c.regions.bytes();
    }
    // 6800 MiB of 16-byte cells.
    assert_eq!(regions, 445_644_800);
    assert_eq!(bytes, 6800 << 20);
}

#[test]
fn small_suite_never_flattens_a_strided_call() {
    let entries = builtin_suite(Scale::Small)
        .into_iter()
        .filter(|e| e.name.starts_with("btio_") || e.name.starts_with("noncontig_"));
    let mut ran = Vec::new();
    for entry in entries {
        let mut cluster = build_cluster(&entry.spec);
        cluster.run();
        let mut strided = 0;
        for c in calls(cluster.scripts()) {
            assert!(
                !c.regions.is_flattened(),
                "{}: a strided call was flattened",
                entry.name
            );
            strided += usize::from(c.regions.is_strided());
        }
        assert!(strided > 0, "{}: no strided calls to check", entry.name);
        ran.push(entry.name);
    }
    assert_eq!(
        ran,
        [
            "noncontig_vanilla",
            "noncontig_dualpar",
            "btio_vanilla",
            "btio_dualpar"
        ]
    );
}
