//! Profiling a simulated run: attach a trace recorder to the network, run
//! the paper's 2-D gradient summation on the full 128×32 multipod, and
//! export a Perfetto-loadable Chrome trace of its collective phases and
//! of the link transfers among the first 32 chips, with a summary of the
//! exported events embedded.
//!
//! ```sh
//! cargo run --release --example profiled_training
//! ```
//!
//! Writes `profiled_training.trace.json`; open it at
//! <https://ui.perfetto.dev> to see collective phases on the simulation
//! timeline and per-link transfer rows under the "network" process.

use multipod::collectives::twod::two_dim_all_reduce;
use multipod::collectives::Precision;
use multipod::simnet::{Network, NetworkConfig};
use multipod::telemetry::Obs;
use multipod::tensor::{Shape, Tensor, TensorRng};
use multipod::topology::{Multipod, MultipodConfig};
use multipod::trace::{Recorder, TraceEvent, TraceSink};

fn main() {
    // The full machine: 4 pods side by side = a 128x32 mesh with torus Y
    // links and optical cross-pod X links.
    let mesh = Multipod::new(MultipodConfig::multipod(4));
    let mut net = Network::new(mesh.clone(), NetworkConfig::tpu_v3());
    println!(
        "mesh: {}x{} chips ({} hosts)",
        mesh.x_len(),
        mesh.y_len(),
        mesh.num_hosts()
    );

    // Attach a recorder: every link transfer and collective phase from
    // here on is captured with its simulated time window.
    let recorder = Recorder::shared();
    net.set_obs(Obs::new(Some(recorder.clone()), None));

    // One gradient tensor per chip (4096 elements, so the payload shards
    // evenly through both the 32-member Y rings and the 128-member X
    // lines).
    let mut rng = TensorRng::seed(42);
    let grads: Vec<Tensor> = (0..mesh.num_chips())
        .map(|_| rng.uniform(Shape::vector(4096), -1.0, 1.0))
        .collect();
    let out =
        two_dim_all_reduce(&mut net, &grads, Precision::F32, 1, None).expect("2-D all-reduce");
    println!(
        "summed {} gradients in {:.2} ms simulated ({} trace events)",
        grads.len(),
        1e3 * out.time.seconds(),
        recorder.len()
    );

    // Aggregate per-link utilization and per-phase totals.
    let summaries = recorder.link_summaries();
    let busiest = summaries
        .iter()
        .max_by(|a, b| a.busy_seconds.total_cmp(&b.busy_seconds))
        .expect("at least one link");
    println!(
        "busiest link: {}->{} ({}, {} transfers, {:.1}% utilized over the run)",
        busiest.src,
        busiest.dst,
        busiest.class.label(),
        busiest.transfers,
        100.0 * busiest.utilization(recorder.horizon_seconds())
    );
    println!("span totals:");
    for total in recorder.span_totals() {
        println!(
            "  {:>16} {:<18} {:>9.1} µs  x{}",
            total.category.label(),
            total.name,
            1e6 * total.total_seconds,
            total.count
        );
    }

    // Chrome trace: all collective spans, plus the link events among the
    // first 32 chips so the exported file stays small (the full machine
    // records hundreds of thousands of link transfers). The summary
    // embedded under `otherData` covers the exported events.
    let kept = Recorder::new();
    for event in recorder.events().iter() {
        match event {
            TraceEvent::Span(s) => kept.record_span(s.clone()),
            TraceEvent::Link(l) if l.src < 32 && l.dst < 32 => kept.record_link(l.clone()),
            TraceEvent::Link(_) => {}
        }
    }
    assert!(
        !kept.link_summaries().is_empty() && kept.len() < recorder.len(),
        "the export keeps some link events and drops the rest"
    );
    kept.write_chrome_trace("profiled_training.trace.json")
        .expect("write trace");
    println!(
        "wrote profiled_training.trace.json ({} of {} events exported)",
        kept.len(),
        recorder.len()
    );
    println!("open it at https://ui.perfetto.dev");
}
