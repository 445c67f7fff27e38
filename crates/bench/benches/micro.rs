//! Criterion microbenchmarks of the hot kernels: the per-step building
//! blocks whose costs the virtual-time model charges.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use overset_balance::{group_grids, static_balance, AdjacencyMatrix};
use overset_connectivity::donor::center_start;
use overset_connectivity::{
    cut_holes_and_find_fringe_arena, walk_search, ConnArena, InverseMap, SearchCost,
};
use overset_grid::curvilinear::Solid;
use overset_grid::gen::airfoil::{airfoil_system, near_grid};
use overset_grid::gen::delta_wing::delta_wing_system;
use overset_grid::Dims;
use overset_solver::adi::{implicit_sweeps, SweepScratch};
use overset_solver::kernels::solve_lanes;
use overset_solver::rhs::compute_residual;
use overset_solver::tridiag::{solve_with, TriScratch};
use overset_solver::{select_isa, Block, FlowConditions, Isa, Scratch, SerialComm, W};

fn fc() -> FlowConditions {
    let mut fc = FlowConditions::new(0.8, 0.0, 1.0e6);
    fc.dt = 0.004;
    fc
}

fn solver_kernels(c: &mut Criterion) {
    let g = near_grid(133, 40, 1.1);
    let block = Block::from_grid(0, &g, g.dims().full_box(), [None; 6], &fc());
    let mut scratch = Scratch::for_block(&block);

    c.bench_function("rhs/residual_5k_nodes", |b| {
        b.iter(|| compute_residual(&block, &fc(), &mut scratch.res))
    });

    // One delta-wing rank's 3-D viscous block (half the wing at scale 0.55,
    // 34×18×45 nodes): the residual's j- and k-passes walk strided lines,
    // and the thin-layer viscous pass runs on every node.
    let wing = &delta_wing_system(0.55)[0];
    let half = wing.dims().full_box().split(0, 2)[0];
    let wing_block = Block::from_grid(0, wing, half, [None; 6], &fc());
    assert!(wing_block.viscous && !wing_block.two_d);
    let mut wing_scratch = Scratch::for_block(&wing_block);
    c.bench_function("rhs/residual_delta_wing_3d", |b| {
        b.iter(|| compute_residual(&wing_block, &fc(), &mut wing_scratch.res))
    });

    c.bench_function("adi/implicit_sweeps_5k_nodes", |b| {
        b.iter_batched(
            || {
                let mut dq = overset_grid::field::StateField::new(block.local_dims);
                for (i, v) in dq.as_mut_slice().iter_mut().enumerate() {
                    *v = ((i * 31) % 17) as f64 * 1e-6;
                }
                dq
            },
            |mut dq| implicit_sweeps(&block, &fc(), &mut dq, &mut SerialComm, &mut scratch.sweep),
            BatchSize::LargeInput,
        )
    });

    // The same sweeps through the scalar lane fallback (`--no-simd` path):
    // the pair quantifies the batched-kernel host speedup without cross-build
    // noise.
    let mut scalar_sweep = SweepScratch::new(Isa::Scalar);
    c.bench_function("adi/implicit_sweeps_5k_nodes_scalar", |b| {
        b.iter_batched(
            || {
                let mut dq = overset_grid::field::StateField::new(block.local_dims);
                for (i, v) in dq.as_mut_slice().iter_mut().enumerate() {
                    *v = ((i * 31) % 17) as f64 * 1e-6;
                }
                dq
            },
            |mut dq| implicit_sweeps(&block, &fc(), &mut dq, &mut SerialComm, &mut scalar_sweep),
            BatchSize::LargeInput,
        )
    });
}

/// Scalar Thomas (one line at a time) vs the lane-batched kernel solving
/// [`W`] lines per call, at short and long line lengths.
fn tridiag_kernels(c: &mut Criterion) {
    let isa = select_isa(true);
    for n in [32usize, 128] {
        // W independent diagonally dominant systems.
        let a: Vec<f64> = (0..n * W).map(|i| -0.4 - 0.01 * (i / W) as f64).collect();
        let bd: Vec<f64> = (0..n * W).map(|i| 2.0 + 0.05 * (i / W) as f64).collect();
        let cc: Vec<f64> = (0..n * W).map(|i| -0.3 - 0.02 * (i / W) as f64).collect();
        let d0: Vec<f64> = (0..n * W).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();

        // De-interleave for the scalar reference.
        let lane = |v: &[f64], l: usize| -> Vec<f64> { (0..n).map(|i| v[i * W + l]).collect() };
        let las: Vec<Vec<f64>> = (0..W).map(|l| lane(&a, l)).collect();
        let lbs: Vec<Vec<f64>> = (0..W).map(|l| lane(&bd, l)).collect();
        let lcs: Vec<Vec<f64>> = (0..W).map(|l| lane(&cc, l)).collect();
        let lds: Vec<Vec<f64>> = (0..W).map(|l| lane(&d0, l)).collect();

        let mut ws = TriScratch::default();
        c.bench_function(&format!("tridiag/thomas_scalar_4lines_n{n}"), |b| {
            b.iter_batched(
                || lds.clone(),
                |mut ds| {
                    for l in 0..W {
                        solve_with(&las[l], &lbs[l], &lcs[l], &mut ds[l], &mut ws);
                    }
                    ds
                },
                BatchSize::SmallInput,
            )
        });

        let mut cp = vec![0.0; n * W];
        c.bench_function(&format!("tridiag/thomas_batched_4lines_n{n}"), |b| {
            b.iter_batched(
                || d0.clone(),
                |mut d| {
                    solve_lanes(isa, &a, &bd, &cc, &mut d, &mut cp);
                    d
                },
                BatchSize::SmallInput,
            )
        });
    }
}

/// The batched trilinear Newton inversion ([`W`] candidate cells per call)
/// through the AVX2 lanes vs the portable scalar lanes (the `--no-simd`
/// path) — the donor-search half of the SIMD ablation pair.
fn trilinear_kernels(c: &mut Criterion) {
    use overset_connectivity::kernels::{invert_cells_lanes, CORNERS};
    let g = near_grid(133, 40, 1.1);
    let block = Block::from_grid(0, &g, g.dims().full_box(), [None; 6], &fc());
    let ow = block.owned_local();
    let kmax = if block.two_d { 1 } else { 2 };
    // W interior cells, one per lane; targets just off each cell's centroid
    // so Newton runs several iterations.
    let mut corners = [0.0f64; CORNERS * 3 * W];
    let mut targets = [0.0f64; 3 * W];
    for l in 0..W {
        let cell = overset_grid::Ijk::new(ow.lo.i + 30 + 7 * l, ow.lo.j + 10 + 2 * l, ow.lo.k);
        let mut centroid = [0.0f64; 3];
        for dk in 0..kmax {
            for dj in 0..2 {
                for di in 0..2 {
                    let n = overset_grid::Ijk::new(cell.i + di, cell.j + dj, cell.k + dk);
                    let x = block.coords[n];
                    let cidx = di + 2 * dj + 4 * dk;
                    for m in 0..3 {
                        corners[(cidx * 3 + m) * W + l] = x[m];
                        centroid[m] += x[m] / (4 * kmax) as f64;
                    }
                }
            }
        }
        for m in 0..3 {
            targets[m * W + l] = centroid[m] + 1e-3 * (l as f64 + 1.0);
        }
    }
    for (name, isa) in [("batched", select_isa(true)), ("scalar", Isa::Scalar)] {
        c.bench_function(&format!("donor/trilinear_invert_4cells_{name}"), |b| {
            b.iter(|| {
                let mut t_out = [0.0f64; 3 * W];
                let mut iters = [0u64; W];
                let mut ok = [false; W];
                invert_cells_lanes(
                    isa,
                    block.two_d,
                    &corners,
                    &targets,
                    &mut t_out,
                    &mut iters,
                    &mut ok,
                );
                (t_out, iters, ok)
            })
        });
    }
}

fn connectivity_kernels(c: &mut Criterion) {
    let g = near_grid(265, 80, 1.1);
    let block = Block::from_grid(0, &g, g.dims().full_box(), [None; 6], &fc());

    let (target, center) = ([0.9, 0.35, 0.0], center_start(&block));
    let walk =
        |start| walk_search(&block, target, start, &mut SearchCost::default(), false, Isa::Scalar);
    c.bench_function("donor/cold_walk_search", |b| b.iter(|| walk(center)));
    let warm_start = match walk(center) {
        overset_connectivity::SearchOutcome::Found(d) => d.cell,
        _ => center,
    };
    c.bench_function("donor/warm_walk_search", |b| b.iter(|| walk(warm_start)));

    let sys = airfoil_system(0.5);
    let solids: Vec<(usize, Solid)> =
        sys.iter().enumerate().flat_map(|(g, gr)| gr.solids.iter().map(move |s| (g, *s))).collect();
    let fresh = || Block::from_grid(2, &sys[2], sys[2].dims().full_box(), [None; 6], &fc());
    let inv = InverseMap::build(&fresh());
    for (name, map) in [
        ("holes/cut_and_fringe_5k_nodes", None),
        ("holes/cut_and_fringe_5k_nodes_masked", Some(&inv)),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                fresh,
                |mut blk| {
                    cut_holes_and_find_fringe_arena(&mut blk, &solids, map, &mut ConnArena::new())
                },
                BatchSize::LargeInput,
            )
        });
    }
}

fn inverse_map_kernels(c: &mut Criterion) {
    let g = near_grid(265, 80, 1.1);
    let block = Block::from_grid(0, &g, g.dims().full_box(), [None; 6], &fc());

    c.bench_function("invmap/build_21k_nodes", |b| b.iter(|| InverseMap::build(&block)));

    // A hollow 3-D shell: half the delta-wing grid at scale 0.55, one
    // delta-wing rank's block. Its 34×18×36 = 22,032 fine bins hold 9,304
    // seeded ones, so most of the build is the empty-bin fill.
    let wing = &delta_wing_system(0.55)[0];
    let half = wing.dims().full_box().split(0, 2)[0];
    let shell = Block::from_grid(0, wing, half, [None; 6], &fc());
    c.bench_function("invmap/build_3d_shell", |b| b.iter(|| InverseMap::build(&shell)));

    let inv = InverseMap::build(&block);
    c.bench_function("invmap/query", |b| b.iter(|| inv.query([0.9, 0.35, 0.0])));

    // The pair the virtual-time savings come from: a cold search from the
    // block-center cell vs the same search from the O(1) map seed.
    let target = [0.9, 0.35, 0.0];
    let walk =
        |start| walk_search(&block, target, start, &mut SearchCost::default(), false, Isa::Scalar);
    c.bench_function("donor/cold_walk_center_start", |b| b.iter(|| walk(center_start(&block))));
    c.bench_function("donor/cold_walk_map_seeded", |b| b.iter(|| walk(inv.query(target))));
}

fn balance_kernels(c: &mut Criterion) {
    let sizes: Vec<usize> = (0..16).map(|i| 20_000 + i * 3_137).collect();
    c.bench_function("balance/static_algorithm1_16_grids", |b| {
        b.iter(|| static_balance(&sizes, 61))
    });

    let n = 400;
    let brick_sizes: Vec<usize> = (0..n).map(|i| 200 + (i * 97) % 800).collect();
    let mut adj = AdjacencyMatrix::new(n);
    for i in 0..n {
        for d in [1usize, 20] {
            if i + d < n {
                adj.connect(i, i + d);
            }
        }
    }
    c.bench_function("balance/grouping_algorithm3_400_bricks", |b| {
        b.iter(|| group_grids(&brick_sizes, 16, &adj))
    });

    c.bench_function("decomp/lattice_split_61", |b| {
        b.iter(|| overset_grid::decomp::lattice_split(Dims::new(120, 90, 70), 61))
    });
}

criterion_group!(
    benches,
    solver_kernels,
    tridiag_kernels,
    trilinear_kernels,
    connectivity_kernels,
    inverse_map_kernels,
    balance_kernels
);
criterion_main!(benches);
