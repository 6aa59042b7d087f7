//! Fig. 7 / §5.3: the design-space exploration over candidate FPGA
//! partitions, the optimal region layout, the fraction of resources
//! reserved by the system, and the effect of the intra-FPGA
//! buffer-elimination optimization (paper: −82.3 %, keeping the reserved
//! share below 10 %).

use vital::fabric::{explore_partitions, DeviceModel, PartitionObjective, RegionKind};
use vital::interface::{BufferPolicy, CommRegionModel};

fn main() {
    let device = DeviceModel::xcvu37p();
    println!("== Fig. 7: partitioning the {} ==\n", device.name());

    let ranked = explore_partitions(&device, &PartitionObjective::default())
        .expect("the XCVU37P always has a feasible partition");
    println!(
        "design-space exploration: {} candidates ({} feasible — paper: <10 possible partitions)\n",
        ranked.len(),
        ranked.iter().filter(|c| c.feasible).count()
    );
    println!(
        "{:>10} {:>7} {:>9} {:>8} {:>9}  note",
        "block rows", "splits", "feasible", "blocks", "score"
    );
    for c in &ranked {
        match (&c.floorplan, c.score) {
            (Some(plan), Some(score)) => println!(
                "{:>10} {:>7} {:>9} {:>8} {:>9.3}  reserved {:.1}%",
                c.block_rows,
                c.column_splits,
                "yes",
                plan.user_blocks().len(),
                score,
                plan.reserved_fraction() * 100.0
            ),
            _ => println!(
                "{:>10} {:>7} {:>9} {:>8} {:>9}  {}",
                c.block_rows,
                c.column_splits,
                "no",
                "-",
                "-",
                c.rejection.as_deref().unwrap_or("")
            ),
        }
    }

    let best = ranked
        .iter()
        .find(|c| c.feasible)
        .and_then(|c| c.floorplan.as_ref())
        .expect("at least one feasible candidate");
    println!("\noptimal partition: {best}");
    for b in best.user_blocks().iter().take(3) {
        println!(
            "  {} die {} rows {}..{} -> {}",
            b.id(),
            b.die(),
            b.row_start(),
            b.row_start() + b.rows(),
            b.resources()
        );
    }
    println!(
        "  ... ({} identical blocks total)",
        best.user_blocks().len()
    );
    for r in best.reserved_regions() {
        println!("  region[{}]: {} ({})", r.kind, r.resources, r.note);
    }
    assert!(best
        .reserved_regions()
        .iter()
        .any(|r| r.kind == RegionKind::Service));

    println!("\n== §5.3: system-reserved resources and buffer elimination ==\n");
    let model = CommRegionModel::for_floorplan(best);
    let without = model.resources(BufferPolicy::BufferAll);
    let with = model.resources(BufferPolicy::EliminateIntraFpga);
    println!("comm region without optimization: {without}");
    println!("comm region with elimination    : {with}");
    println!(
        "reduction in system-reserved resources: {:.1}%  (paper: 82.3%)",
        model.elimination_reduction() * 100.0
    );
    println!(
        "reserved fraction of the device: {:.1}%  (paper: below 10%)",
        best.reserved_fraction() * 100.0
    );
    println!(
        "optimized circuits fit the reserved strip: {}",
        with.fits_within(&best.reserved_resources())
    );

    // Extension: the sub-block design point (paper Fig. 7 regions 1a/1b).
    // The real XCVU37P layout is not column-periodic, so row-direction
    // partitioning wins above; on a hypothetical periodic layout the DSE
    // picks 2 sub-blocks per band.
    let periodic = DeviceModel::xcvu37p_periodic();
    let ranked = explore_partitions(&periodic, &PartitionObjective::default())
        .expect("periodic variant is feasible");
    let best_p = ranked
        .iter()
        .find(|c| c.feasible)
        .and_then(|c| c.floorplan.as_ref())
        .expect("at least one feasible candidate");
    println!(
        "\nextension — periodic layout ({}): optimal partition = {} blocks \
         ({} per band), i.e. the 1a/1b sub-block design point",
        periodic.name(),
        best_p.user_blocks().len(),
        best_p.column_splits()
    );
}
