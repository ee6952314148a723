//! Delay–throughput tradeoff: what the capacity laws do not show.
//!
//! The paper's companion literature (Neely–Modiano, Sharma–Mazumdar–Shroff)
//! studies the price of mobility-assisted capacity: packets ride relays
//! until chance contacts occur, so delay grows even while throughput holds.
//! This example loads routing scheme A at increasing fractions of its fluid
//! capacity and plots the packet-level delay curve — flat at low load,
//! exploding at the stability boundary.
//!
//! ```text
//! cargo run --release --example delay_throughput
//! ```

use hycap_mobility::{Kernel, Population, PopulationConfig};
use hycap_routing::{SchemeAPlan, TrafficMatrix};
use hycap_sim::obs::Observer;
use hycap_sim::{
    FluidEngine, FluidPlan, FluidRun, HybridNetwork, Pacing, PacketEngine, PacketPlan, PacketRun,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 256;
    let alpha = 0.25;
    let mut rng = StdRng::seed_from_u64(17);
    let config = PopulationConfig::builder(n)
        .alpha(alpha)
        .kernel(Kernel::uniform_disk(1.0))
        .build();
    let pop = Population::generate(&config, &mut rng);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let plan = SchemeAPlan::build(&homes, &traffic, (n as f64).powf(alpha));
    let mut net = HybridNetwork::ad_hoc(pop);

    // Fluid capacity as the yardstick.
    let spec = FluidRun::counter(400, 17, None);
    let fluid = FluidEngine::default()
        .run(&mut net, FluidPlan::A(&plan), spec, &mut Observer::noop())
        .and_then(|outcome| outcome.into_complete("scheme A"))
        .expect("fluid measurement")
        .base;
    println!(
        "scheme A at n = {n}: fluid capacity λ* = {:.5} (typical {:.5}), mean hops {:.2}\n",
        fluid.lambda,
        fluid.lambda_typical,
        plan.mean_hops()
    );

    let engine = PacketEngine::default();
    println!(
        "{:<12} {:<12} {:<14} {:<12} {:<10}",
        "load (λ/λ*)", "injected", "delivered", "delay", "backlog"
    );
    for &load in &[0.1, 0.25, 0.5, 1.0, 2.0, 4.0] {
        // Packets are W/2-sized: one fluid-λ unit = 2 packets/slot.
        let lambda = load * fluid.lambda * 2.0;
        let scheme_a = PacketPlan::A {
            plan: &plan,
            traffic: &traffic,
        };
        let spec = PacketRun::open_loop(lambda, 4000, Pacing::Legacy(&mut rng));
        let stats = engine
            .run(&mut net, scheme_a, spec, &mut Observer::noop())
            .and_then(|outcome| outcome.into_complete("scheme A packets"))
            .expect("packet run")
            .stats;
        println!(
            "{:<12} {:<12} {:<14} {:<12} {:<10}",
            format!("{load:.2}"),
            stats.injected,
            format!(
                "{} ({:.0}%)",
                stats.delivered,
                100.0 * stats.delivery_ratio()
            ),
            if stats.delivered == 0 {
                "-".to_string()
            } else {
                format!("{:.0} slots", stats.mean_delay)
            },
            stats.backlog,
        );
    }
    println!();
    println!("below λ* the delay is set by inter-contact waits per hop (Θ(f(n))");
    println!("hops, Lemma 4's hop-count argument); past λ* queues — and delay —");
    println!("diverge while delivered throughput saturates. Mobility buys");
    println!("capacity (Θ(1/f) instead of Θ(1/√n)) but pays in delay.");
}
