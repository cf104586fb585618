//! Property tests for the linear-IR lowering: across randomly shaped
//! chain/residual/dense graphs, the registers a [`LinearProgram`]
//! assigns must never alias two simultaneously-live values. Register reuse
//! is legal only once the previous occupant's last reader has run: no
//! instruction reads the register it writes.

use bnff_graph::builder::GraphBuilder;
use bnff_graph::op::Conv2dAttrs;
use bnff_graph::passes::freeze::freeze;
use bnff_graph::{Graph, LinearProgram};
use bnff_tensor::Shape;
use proptest::prelude::*;

/// Builds a trainable graph with `blocks` body blocks of the requested
/// topology: 0 = plain chain, 1 = residual (eltwise sum), 2 = dense
/// (channel concat). All three stress slot reuse differently — chains free
/// aggressively, residuals hold a value across a block, concats grow.
fn build_graph(
    batch: usize,
    channels: usize,
    blocks: usize,
    kind: usize,
    classes: usize,
    spatial: usize,
) -> Graph {
    let mut b = GraphBuilder::new("linear-prop");
    let x = b.input("in", Shape::nchw(batch, 3, spatial, spatial)).unwrap();
    let mut cur = b.conv_bn_relu(x, Conv2dAttrs::same_3x3(channels), "stem").unwrap();
    for i in 0..blocks {
        cur = match kind {
            0 => b.conv_bn_relu(cur, Conv2dAttrs::same_3x3(channels), &format!("c{i}")).unwrap(),
            1 => {
                let branch =
                    b.conv_bn_relu(cur, Conv2dAttrs::same_3x3(channels), &format!("r{i}")).unwrap();
                b.eltwise_sum(vec![cur, branch], &format!("sum{i}")).unwrap()
            }
            _ => {
                let branch = b
                    .conv_bn_relu(cur, Conv2dAttrs::pointwise(channels), &format!("d{i}"))
                    .unwrap();
                b.concat(vec![cur, branch], &format!("cat{i}")).unwrap()
            }
        };
    }
    let gap = b.global_avg_pool(cur, "gap").unwrap();
    let fc = b.fully_connected(gap, classes, "fc").unwrap();
    let labels = b.input("labels", Shape::vector(batch)).unwrap();
    b.softmax_loss(fc, labels, "loss").unwrap();
    b.finish()
}

/// One value's occupancy of a register: defined at `def`, last read at
/// `last_use` (positions are 0 for the seeded input, `i + 1` for
/// instruction `i`).
struct LiveRange {
    reg: usize,
    def: usize,
    last_use: usize,
}

/// Replays the tape symbolically and checks that no two values whose live
/// ranges overlap were assigned the same register, and that every value fits
/// the register it is written to.
fn check_no_aliasing(program: &LinearProgram) -> Result<(), TestCaseError> {
    let bytes = program.reg_bytes();
    prop_assert_eq!(bytes.len(), program.reg_count());

    // Replay: which value (index into `ranges`) each register holds.
    let mut held: Vec<Option<usize>> = vec![None; program.reg_count()];
    let mut ranges: Vec<LiveRange> = Vec::new();
    held[program.input_reg()] = Some(0);
    ranges.push(LiveRange { reg: program.input_reg(), def: 0, last_use: 0 });
    for (i, instr) in program.instrs().iter().enumerate() {
        let pos = i + 1;
        for &reg in &instr.inputs {
            let vid = held[reg];
            prop_assert!(vid.is_some(), "'{}' reads register {} before any def", instr.name, reg);
            ranges[vid.unwrap()].last_use = pos;
        }
        prop_assert!(
            instr.out_volume * 4 <= bytes[instr.out],
            "'{}' writes {} bytes into register {} of {} bytes",
            instr.name,
            instr.out_volume * 4,
            instr.out,
            bytes[instr.out]
        );
        held[instr.out] = Some(ranges.len());
        ranges.push(LiveRange { reg: instr.out, def: pos, last_use: pos });
    }
    // The final output must survive to the end of the tape.
    let out_vid = held[program.output_reg()];
    prop_assert!(out_vid.is_some(), "output register never written");
    ranges[out_vid.unwrap()].last_use = program.len() + 1;

    // Two values sharing a register must have disjoint live ranges: the
    // successor is defined strictly after the predecessor's last read.
    for (a_idx, a) in ranges.iter().enumerate() {
        for b in ranges.iter().skip(a_idx + 1) {
            if a.reg != b.reg {
                continue;
            }
            let (first, second) = if a.def <= b.def { (a, b) } else { (b, a) };
            prop_assert!(
                first.last_use < second.def,
                "register {} aliases live ranges [{}, {}] and [{}, {}]",
                a.reg,
                first.def,
                first.last_use,
                second.def,
                second.last_use
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn linearized_offsets_never_alias_live_ranges(
        batch in 1usize..3,
        channels in 2usize..7,
        blocks in 1usize..4,
        kind in 0usize..3,
        classes in 2usize..6,
        spatial in 6usize..11,
    ) {
        let graph = build_graph(batch, channels, blocks, kind, classes, spatial);
        let frozen = freeze(&graph).unwrap();
        let program = LinearProgram::lower_for_inference(&frozen).unwrap();
        prop_assert!(!program.is_empty());
        program.validate().unwrap();
        check_no_aliasing(&program)?;
    }
}
