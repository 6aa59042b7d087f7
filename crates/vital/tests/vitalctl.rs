//! `vitalctl` end to end: the console binary driven over stdin, once with
//! its in-process daemon and once against a `vitald` listening on
//! loopback.

use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::Arc;

use vital::compiler::{Compiler, CompilerConfig};
use vital::netlist::hls::{AppSpec, Operator};
use vital::runtime::{RuntimeConfig, SystemController};
use vital::service::{ServiceConfig, ServiceServer, Vitald};

const USAGE: &str = "usage: deploy <name> [quota-mb] [--isa]";

/// Runs `vitalctl` with `args`, feeds it `script` and returns its stdout.
fn vitalctl(args: &[&str], script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vitalctl"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("vitalctl starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("vitalctl exits");
    assert!(out.status.success(), "vitalctl failed: {:?}", out.status);
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn a_quota_that_does_not_parse_or_overflows_deploys_nothing() {
    // 2^44 + 1 MiB and 2^44 MiB overflow a byte count (shifted, they
    // would wrap to 1 MiB and to 0, the default quota); `abc` is no number.
    let out = vitalctl(
        &[],
        "deploy lenet-S 17592186044417\n\
         deploy lenet-S 17592186044416\n\
         deploy lenet-S abc\n\
         status\n\
         quit\n",
    );
    assert_eq!(out.matches(USAGE).count(), 3, "{out}");
    assert!(out.contains("60 blocks free, 0 live tenant(s)"), "{out}");
    assert!(!out.contains("deployed"), "{out}");
}

#[test]
fn connect_drives_a_remote_daemon() {
    let mut spec = AppSpec::new("mac");
    let m = spec.add_operator("m", Operator::MacArray { pes: 8 });
    spec.add_input("in", m, 64).unwrap();
    spec.add_output("out", m, 64).unwrap();
    let bitstream = Compiler::new(CompilerConfig::default())
        .compile(&spec)
        .unwrap()
        .into_bitstream();
    let controller = Arc::new(SystemController::new(RuntimeConfig::paper_cluster()));
    controller.register(bitstream).unwrap();
    let vitald = Vitald::spawn(Arc::clone(&controller), ServiceConfig::default());
    let server = ServiceServer::serve(&vitald, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();

    let out = vitalctl(
        &["--connect", &addr],
        "status\ndeploy mac 64\nstatus\nundeploy 1\nstatus\nquit\n",
    );
    assert!(
        out.contains(&format!("connected to vitald at {addr}")),
        "{out}"
    );
    assert!(!out.contains("error"), "{out}");
    let free: Vec<&str> = out.lines().filter(|l| l.contains("blocks free")).collect();
    assert_eq!(free.len(), 3, "{out}");
    assert!(free[0].contains("0 live tenant(s)"), "{out}");
    assert!(free[1].contains("1 live tenant(s)"), "{out}");
    assert!(free[2].contains("0 live tenant(s)"), "{out}");
    server.stop();
}
