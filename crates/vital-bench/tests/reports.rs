//! Golden-output test: every report binary whose stdout is deterministic
//! must exit 0 and print exactly `reports/<name>.txt`. Wall-clock output
//! goes to stderr and is not compared; `fig8_compile_breakdown` reports
//! wall-clock shares by design and is not listed.

use std::process::Command;

fn check(name: &str, exe: &str) {
    let out = Command::new(exe).output().expect("report binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "`{name}` exited with {}:\n{stderr}",
        out.status
    );
    let got = String::from_utf8(out.stdout).expect("report is UTF-8");
    let path = vital_bench::reports_dir().join(format!("{name}.txt"));
    let want = std::fs::read_to_string(path).unwrap_or_default();
    let (mut w, mut g) = (want.split('\n'), got.split('\n'));
    if let Some((line, w, g)) = (1..)
        .map(|n| (n, w.next(), g.next()))
        .take_while(|(_, w, g)| w.is_some() || g.is_some())
        .find(|(_, w, g)| w != g)
    {
        panic!(
            "`{name}` no longer prints reports/{name}.txt; first difference at line {line}:\n  \
             committed: {}\n  printed:   {}\nregenerate with: \
             cargo run --release -q -p vital-bench --bin {name} > reports/{name}.txt",
            w.unwrap_or("<end of file>"),
            g.unwrap_or("<end of output>"),
        );
    }
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
        }
    )*};
}

golden!(
    fig1_motivation,
    table1_capabilities,
    table2_benchmarks,
    table4_baremetal,
    fig7_partition_dse,
    fig9_response_time,
    fig9_failures,
    fig10_sharing_metrics,
    fig_oversubscription,
    ablations,
    fig_isa_elastic,
    fig_scale,
    fig_migration,
);
