//! Human-readable dumps of graphs and partitioned programs.
//!
//! XLA's HLO text form is the lingua franca for debugging partitioner
//! behaviour; these `Display` impls provide the equivalent here, e.g.:
//!
//! ```text
//! %2 = matmul(%0, %1) : [8×8]
//! ```

use std::fmt;

use crate::graph::{HloGraph, Op};
use crate::program::{ComputeOp, Instr, PartitionedProgram};
use crate::sharding::Sharding;

fn sharding_suffix(s: Option<Sharding>) -> String {
    match s {
        None => String::new(),
        Some(Sharding::Replicated) => " {replicated}".to_string(),
        Some(Sharding::Split { axis, parts }) => format!(" {{split axis={axis} parts={parts}}}"),
    }
}

/// `name(operands…, attrs…)` — the one call syntax of graph nodes and
/// program instructions (`%i` / `vi` come from the ids' `Debug`).
fn call(name: &str, operands: &[impl fmt::Debug], attrs: &[String]) -> String {
    let mut args: Vec<String> = operands.iter().map(|o| format!("{o:?}")).collect();
    args.extend_from_slice(attrs);
    format!("{name}({})", args.join(", "))
}

impl fmt::Display for HloGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for id in self.node_ids() {
            let shape = self.shape(id);
            let ann = sharding_suffix(self.annotation(id));
            let body = match self.op(id) {
                Op::Parameter { name } => format!("parameter \"{name}\""),
                Op::Constant { .. } => "constant".to_string(),
                Op::Apply { kind, operands } => call(kind.name(), operands, &kind.attrs()),
            };
            writeln!(f, "{id:?} = {body} : {shape}{ann}")?;
        }
        write!(f, "outputs: {:?}", self.outputs())
    }
}

impl fmt::Display for PartitionedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "// SPMD program over {} cores", self.num_parts())?;
        for instr in self.instrs() {
            let out = instr.out();
            let shape = &self.shapes[out.0];
            let attr = |name: &str, value: &usize| format!("{name}={value}");
            let body = match instr {
                Instr::Compute { op, .. } => match op {
                    ComputeOp::Feed { name, sharding } => {
                        format!("feed \"{name}\"{}", sharding_suffix(Some(*sharding)))
                    }
                    ComputeOp::Constant { .. } => "constant".to_string(),
                    ComputeOp::Apply { kind, operands } => {
                        call(kind.name(), operands, &kind.attrs())
                    }
                    ComputeOp::SliceAxis { input, axis } => {
                        call("slice_axis", &[input], &[attr("axis", axis)])
                    }
                    ComputeOp::ConvHalo {
                        input,
                        kernel,
                        valid_axis,
                    } => call(
                        "conv_halo",
                        &[input, kernel],
                        &[attr("valid_axis", valid_axis)],
                    ),
                    ComputeOp::GatherPartial { input, indices } => {
                        call("gather_partial[onehot-matmul]", &[input, indices], &[])
                    }
                },
                Instr::AllReduce { input, .. } => call("ALL-REDUCE", &[input], &[]),
                Instr::AllGather { input, axis, .. } => {
                    call("ALL-GATHER", &[input], &[attr("axis", axis)])
                }
                Instr::HaloExchange {
                    input, axis, halo, ..
                } => call(
                    "HALO-EXCHANGE",
                    &[input],
                    &[attr("axis", axis), attr("halo", halo)],
                ),
            };
            writeln!(f, "{out:?} = {body} : {shape}")?;
        }
        write!(f, "outputs: {:?}", self.outputs())
    }
}

#[cfg(test)]
mod tests {
    use crate::{HloBuilder, Sharding, SpmdPartitioner};
    use multipod_tensor::Shape;

    #[test]
    fn graph_display_lists_every_node() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[4, 8]), Sharding::Replicated);
        let w = b.parameter("w", Shape::of(&[8, 2]), Sharding::split(1, 2));
        let y = b.matmul(x, w).unwrap();
        let g = b.build(vec![y]).unwrap();
        let text = g.to_string();
        assert!(text.contains("parameter \"x\""));
        assert!(text.contains("{split axis=1 parts=2}"));
        assert!(text.contains("matmul(%0, %1)"));
        assert!(text.contains("outputs: [%2]"));
    }

    #[test]
    fn program_display_shows_collectives() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[4, 8]), Sharding::split(1, 2));
        let w = b.parameter("w", Shape::of(&[8, 2]), Sharding::split(0, 2));
        let y = b.matmul(x, w).unwrap();
        let g = b.build(vec![y]).unwrap();
        let p = SpmdPartitioner::new(2).partition(&g).unwrap();
        let text = p.to_string();
        assert!(text.contains("SPMD program over 2 cores"));
        assert!(text.contains("ALL-REDUCE"));
        assert!(text.contains("feed \"x\""));
    }
}
