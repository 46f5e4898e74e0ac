//! SimPoint methodology demo: slice a real execution's basic-block
//! stream into intervals, cluster BBVs with k-means, and report the
//! representative simulation points (the methodology behind the paper's
//! 49 phases).

use cisa_compiler::{compile, CompileOptions};
use cisa_isa::FeatureSet;
use cisa_workloads::simpoint::{build_bbvs, cluster};
use cisa_workloads::{all_phases, generate, TraceArena, TraceParams};

fn main() {
    // Build an execution that alternates between two phases of bzip2 by
    // concatenating their block streams.
    let phases: Vec<_> = all_phases()
        .into_iter()
        .filter(|p| p.benchmark == "bzip2")
        .take(2)
        .collect();
    let fs = FeatureSet::x86_64();
    let mut stream: Vec<u32> = Vec::new();
    let mut n_blocks = 0usize;
    for (k, spec) in phases.iter().enumerate() {
        let code = compile(&generate(spec), &fs, &CompileOptions::default()).unwrap();
        let offset = n_blocks as u32;
        n_blocks += code.blocks.len();
        // Reconstruct a block-id stream from macro-op PCs.
        let mut pcs: Vec<(u64, u32)> = Vec::new();
        let mut pc = 0x0040_0000u64;
        for (bi, b) in code.blocks.iter().enumerate() {
            pcs.push((pc, offset + bi as u32));
            pc += b.code_bytes as u64;
        }
        let trace = TraceArena::build(
            &code,
            spec,
            TraceParams {
                max_uops: 30_000,
                seed: k as u64,
            },
        );
        let mut last = u32::MAX;
        for i in (0..trace.len()).filter(|&i| trace.is_first(i)) {
            let block = pcs
                .iter()
                .rev()
                .find(|(start, _)| trace.pcs()[i] >= *start)
                .map(|(_, id)| *id)
                .unwrap_or(offset);
            if block != last {
                stream.push(block);
                last = block;
            }
        }
    }

    println!(
        "SimPoint demo: {} block executions over {} static blocks",
        stream.len(),
        n_blocks
    );
    let bbvs = build_bbvs(&stream, n_blocks, 200);
    println!("{} BBVs (interval = 200 block executions)", bbvs.len());
    let k = 2;
    let result = cluster(&bbvs, k, 42);
    for c in 0..k {
        let members = result.assignment.iter().filter(|&&a| a == c).count();
        println!(
            "phase {c}: weight {:.2}, representative interval starts at block-execution {}",
            result.weights[c], bbvs[result.representatives[c]].start
        );
        let _ = members;
    }
    // The two halves of the stream should largely map to two clusters.
    let half = bbvs.len() / 2;
    let first_mode = mode(&result.assignment[..half]);
    let second_mode = mode(&result.assignment[half..]);
    println!("first-half phase: {first_mode}, second-half phase: {second_mode}");
}

fn mode(xs: &[usize]) -> usize {
    let mut counts = std::collections::HashMap::new();
    for &x in xs {
        *counts.entry(x).or_insert(0u32) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .map(|(x, _)| x)
        .unwrap_or(0)
}
