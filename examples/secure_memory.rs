//! Peripheral virtualization: two tenants sharing one board's DRAM and
//! Ethernet, with the service region enforcing isolation (paper §3.2/§3.4).
//!
//! ```text
//! cargo run --example secure_memory
//! ```

use vital::periph::PeriphError;
use vital::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiler = Compiler::new(CompilerConfig::default());
    let config = RuntimeConfig::paper_cluster();
    let controller = SystemController::new(config);

    for name in ["alice-app", "bob-app"] {
        let mut spec = AppSpec::new(name);
        let m = spec.add_operator("m", Operator::MacArray { pes: 8 });
        spec.add_input("i", m, 64)?;
        spec.add_output("o", m, 64)?;
        controller.register(compiler.compile(&spec)?.into_bitstream())?;
    }
    let alice = controller.deploy("alice-app")?;
    let bob = controller.deploy("bob-app")?;
    println!(
        "alice = {} (primary fpga{}), bob = {} (primary fpga{})",
        alice.tenant(),
        alice.primary_fpga(),
        bob.tenant(),
        bob.primary_fpga()
    );

    // Virtual memory: both tenants use the SAME virtual address; the
    // service region translates to disjoint physical pages.
    let mm_alice = controller.memory_of(alice.primary_fpga());
    mm_alice.write(alice.tenant(), 0x1000, b"alice's weights")?;
    let pa = mm_alice.translate(alice.tenant(), 0x1000)?;
    let mm_bob = controller.memory_of(bob.primary_fpga());
    mm_bob.write(bob.tenant(), 0x1000, b"bob's weights!!")?;
    let pb = mm_bob.translate(bob.tenant(), 0x1000)?;
    println!("vaddr 0x1000 -> alice paddr {pa:#x}, bob paddr {pb:#x}");

    let mut buf = [0u8; 15];
    mm_bob.read(bob.tenant(), 0x1000, &mut buf)?;
    println!("bob reads back : {:?}", std::str::from_utf8(&buf)?);
    mm_alice.read(alice.tenant(), 0x1000, &mut buf)?;
    println!("alice reads back: {:?}", std::str::from_utf8(&buf)?);

    // The access monitor blocks out-of-quota accesses.
    let quota = config.default_quota_bytes;
    match mm_alice.read(alice.tenant(), quota + 4096, &mut buf) {
        Err(PeriphError::ProtectionFault { vaddr, .. }) => {
            println!("monitor blocked alice's stray access at {vaddr:#x} (protection fault)");
        }
        other => panic!("expected a protection fault, got {other:?}"),
    }
    println!(
        "alice's monitored counters: {:?}",
        mm_alice.stats(alice.tenant())?
    );

    // Virtual Ethernet: alice sends bob a frame through the shared port.
    let sw = controller.switch();
    sw.send(alice.nic(), bob.nic().mac, b"hello bob".to_vec())?;
    let frame = sw.recv(bob.nic())?.expect("frame queued for bob");
    println!(
        "bob received {:?} from NIC {:#x}",
        std::str::from_utf8(&frame.payload)?,
        frame.src
    );

    // DRAM bandwidth is arbitrated max-min fair.
    let arb = controller.arbiter_of(alice.primary_fpga());
    println!(
        "alice's DRAM grant: {:?} of {} Gb/s",
        arb.grant(alice.tenant())?,
        config.dram_gbps
    );

    for tenant in [alice.tenant(), bob.tenant()] {
        if let ControlResponse::Err(e) = controller.execute(ControlRequest::undeploy(tenant)) {
            return Err(e.into());
        }
    }
    Ok(())
}
