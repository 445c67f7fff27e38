//! The line-pass residual against a node-by-node reference.
//!
//! `reference_residual` below is the per-node assembly the line passes
//! replaced: every node evaluates its own flux, spectral radius, pressure
//! sensor and viscous face fluxes from scratch. It lives only here, as the
//! oracle for `compute_residual`, which must match it bit for bit on every
//! entry of `res` and in the flops it reports.

use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
use overset_grid::field::{Field3, StateField, NVAR};
use overset_grid::{Dims, Ijk, IndexBox};
use overset_solver::conditions::{
    conservatives, pressure, sound_speed, sutherland_viscosity, FlowConditions, GAMMA, PRANDTL,
    PRANDTL_T,
};
use overset_solver::rhs::{
    compute_residual, CHUNK, FLOPS_PER_NODE_PER_DIR, FLOPS_VISCOUS_PER_NODE, K2, K4,
};
use overset_solver::{Blank, Block};
use proptest::prelude::*;

// ---- Reference: the node-by-node assembly, kept verbatim ---------------

#[inline]
fn offset(p: Ijk, dir: usize, d: isize) -> Ijk {
    let mut q = p;
    q.set(dir, (q.get(dir) as isize + d) as usize);
    q
}

/// Contravariant flux vector F̂ through the `dir` computational face at a
/// node, including ALE grid-velocity terms.
#[inline]
fn hat_flux(block: &Block, p: Ijk, dir: usize) -> [f64; NVAR] {
    let q = block.q.node(p);
    let m = block.metrics[p];
    let g = m.grad(dir);
    let jac = m.jac;
    let s = [g[0] * jac, g[1] * jac, g[2] * jac]; // Ŝ = J ∇ξ
    let inv_rho = 1.0 / q[0];
    let u = [q[1] * inv_rho, q[2] * inv_rho, q[3] * inv_rho];
    let vg = block.grid_vel[p];
    let p_stat = pressure(q);
    let u_s = s[0] * u[0] + s[1] * u[1] + s[2] * u[2];
    let ug_s = s[0] * vg[0] + s[1] * vg[1] + s[2] * vg[2];
    let u_rel = u_s - ug_s;
    [
        q[0] * u_rel,
        q[1] * u_rel + s[0] * p_stat,
        q[2] * u_rel + s[1] * p_stat,
        q[3] * u_rel + s[2] * p_stat,
        q[4] * u_rel + p_stat * u_s,
    ]
}

/// Scaled spectral radius σ̂ = |Û_rel| + c|Ŝ| at a node for direction `dir`.
#[inline]
fn spectral_radius(block: &Block, p: Ijk, dir: usize) -> f64 {
    let q = block.q.node(p);
    let m = block.metrics[p];
    let g = m.grad(dir);
    let jac = m.jac;
    let s = [g[0] * jac, g[1] * jac, g[2] * jac];
    let s_norm = (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]).sqrt();
    let inv_rho = 1.0 / q[0];
    let vg = block.grid_vel[p];
    let u_rel = s[0] * (q[1] * inv_rho - vg[0])
        + s[1] * (q[2] * inv_rho - vg[1])
        + s[2] * (q[3] * inv_rho - vg[2]);
    u_rel.abs() + sound_speed(q) * s_norm
}

/// Is the node usable in a difference stencil (inside local storage)?
#[inline]
fn in_local(block: &Block, p: Ijk, dir: usize, d: isize) -> bool {
    let c = p.get(dir) as isize + d;
    c >= 0 && (c as usize) < block.local_dims.get(dir)
}

/// Range of local indices along `dir` that have valid ±1 stencil data:
/// owned nodes, shrunk by one at faces with no neighbor (physical
/// boundaries are handled by the BC module).
fn sweep_box(block: &Block) -> overset_grid::index::IndexBox {
    let mut b = block.owned_local();
    for dir in block.active_dirs().iter().copied() {
        let f_min = 2 * dir;
        let f_max = 2 * dir + 1;
        let has_min = block.neighbor[f_min].is_some() || (dir == 0 && block.self_wrap_i);
        let has_max = block.neighbor[f_max].is_some() || (dir == 0 && block.self_wrap_i);
        if !has_min {
            b.lo.set(dir, b.lo.get(dir) + 1);
        }
        if !has_max {
            b.hi.set(dir, b.hi.get(dir) - 1);
        }
    }
    // Periodic grids: the duplicated seam node (global i = ni-1) mirrors
    // node 0 and is never updated directly.
    if block.self_wrap_i || block.neighbor[1].is_some() {
        let gd = block.grid_dims;
        if block.owned.hi.i == gd.ni && is_periodic(block) {
            b.hi.set(0, b.hi.get(0) - 1);
        }
    }
    b
}

#[inline]
fn is_periodic(block: &Block) -> bool {
    block.periodic_i_grid
}

/// Assemble the residual into `res` over the block's computable nodes.
/// Returns estimated flops performed.
fn reference_residual(block: &Block, fc: &FlowConditions, res: &mut StateField) -> u64 {
    assert_eq!(res.dims(), block.local_dims);
    for v in res.as_mut_slice() {
        *v = 0.0;
    }
    let sweep = sweep_box(block);
    let mut nodes = 0u64;

    for p in sweep.iter() {
        if block.iblank[p] != Blank::Field {
            continue;
        }
        nodes += 1;
        let jac = block.metrics[p].jac;
        let inv_j = 1.0 / jac;
        let mut r = [0.0f64; NVAR];

        for &dir in block.active_dirs() {
            // Central flux difference.
            let fp = hat_flux(block, offset(p, dir, 1), dir);
            let fm = hat_flux(block, offset(p, dir, -1), dir);
            for v in 0..NVAR {
                r[v] -= 0.5 * (fp[v] - fm[v]);
            }
            // JST scalar dissipation: face-based 2nd/4th differences.
            let d_hi = face_dissipation(block, p, dir, 1);
            let d_lo = face_dissipation(block, p, dir, -1);
            for v in 0..NVAR {
                r[v] += d_hi[v] - d_lo[v];
            }
        }

        if block.viscous && fc.viscous_coefficient() > 0.0 {
            let fv_hi = viscous_face_flux(block, p, fc, 1);
            let fv_lo = viscous_face_flux(block, p, fc, -1);
            for v in 0..NVAR {
                r[v] += fv_hi[v] - fv_lo[v];
            }
        }

        let out = res.node_mut(p);
        for v in 0..NVAR {
            out[v] = r[v] * inv_j;
        }
    }

    let dirs = block.active_dirs().len() as u64;
    let mut flops = nodes * dirs * FLOPS_PER_NODE_PER_DIR;
    if block.viscous && fc.viscous_coefficient() > 0.0 {
        flops += nodes * FLOPS_VISCOUS_PER_NODE;
    }
    flops
}

/// JST dissipative flux at the face between `p` and `p + side` along `dir`
/// (side = ±1).
fn face_dissipation(block: &Block, p: Ijk, dir: usize, side: isize) -> [f64; NVAR] {
    let p1 = offset(p, dir, side);
    // Pressure switch ν at both nodes (guarded near storage edges).
    let nu_at = |n: Ijk| -> f64 {
        if !in_local(block, n, dir, 1) || !in_local(block, n, dir, -1) {
            return 0.0;
        }
        let pm = pressure(block.q.node(offset(n, dir, -1)));
        let pc = pressure(block.q.node(n));
        let pp = pressure(block.q.node(offset(n, dir, 1)));
        ((pp - 2.0 * pc + pm) / (pp + 2.0 * pc + pm).max(1e-12)).abs()
    };
    let eps2 = K2 * nu_at(p).max(nu_at(p1));
    let eps4 = (K4 - eps2).max(0.0);
    let sigma = 0.5 * (spectral_radius(block, p, dir) + spectral_radius(block, p1, dir));

    let q0 = block.q.node(p);
    let q1 = block.q.node(p1);
    let mut d = [0.0f64; NVAR];
    // Second difference across the face.
    for v in 0..NVAR {
        d[v] = eps2 * (q1[v] - q0[v]);
    }
    // Fourth difference needs one more node on each side; degrade to pure
    // 2nd-difference when the stencil leaves local storage or crosses
    // blanked nodes.
    let pm = offset(p, dir, -side);
    let pp = offset(p1, dir, side);
    let stencil_ok = in_local(block, p, dir, -side)
        && in_local(block, p1, dir, side)
        && block.iblank[pm] == Blank::Field
        && block.iblank[pp] == Blank::Field
        && block.iblank[p1] != Blank::Hole;
    if stencil_ok {
        let qm = block.q.node(pm);
        let qp = block.q.node(pp);
        for v in 0..NVAR {
            let third = (qp[v] - q1[v]) - 2.0 * (q1[v] - q0[v]) + (q0[v] - qm[v]);
            d[v] -= eps4 * third;
        }
    }
    // Face flux orientation: the residual adds d(p+1/2) - d(p-1/2).
    let sign = if side > 0 { 1.0 } else { -1.0 };
    for v in d.iter_mut() {
        *v *= sigma * sign;
    }
    d
}

/// Thin-layer viscous flux at the η-face between `p` and `p + side`·η̂
/// (side = ±1), in the Q̂ equation (to be differenced and divided by J).
fn viscous_face_flux(block: &Block, p: Ijk, fc: &FlowConditions, side: isize) -> [f64; NVAR] {
    const DIR: usize = 1; // thin layer acts in the body-normal η direction
    if !in_local(block, p, DIR, side) {
        return [0.0; NVAR];
    }
    let p1 = offset(p, DIR, side);
    let (qa, qb) = (block.q.node(p), block.q.node(p1));
    let (ma, mb) = (block.metrics[p], block.metrics[p1]);
    // Face-averaged Ŝ and J.
    let s = [
        0.5 * (ma.eta[0] * ma.jac + mb.eta[0] * mb.jac),
        0.5 * (ma.eta[1] * ma.jac + mb.eta[1] * mb.jac),
        0.5 * (ma.eta[2] * ma.jac + mb.eta[2] * mb.jac),
    ];
    let jf = 0.5 * (ma.jac + mb.jac);
    let m1 = (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]) / jf;

    let ua = [qa[1] / qa[0], qa[2] / qa[0], qa[3] / qa[0]];
    let ub = [qb[1] / qb[0], qb[2] / qb[0], qb[3] / qb[0]];
    let du = [ub[0] - ua[0], ub[1] - ua[1], ub[2] - ua[2]];
    let s_du = s[0] * du[0] + s[1] * du[1] + s[2] * du[2];

    let mu_l = 0.5 * (sutherland_viscosity(qa) + sutherland_viscosity(qb));
    let mu_t = 0.5 * (block.mu_t[p] + block.mu_t[p1]);
    let mu = mu_l + mu_t;
    let coef = fc.viscous_coefficient();

    // Momentum: μ (m1 du + (1/3)(S·du) S / J).
    let fm = [
        coef * mu * (m1 * du[0] + s_du * s[0] / (3.0 * jf)),
        coef * mu * (m1 * du[1] + s_du * s[1] / (3.0 * jf)),
        coef * mu * (m1 * du[2] + s_du * s[2] / (3.0 * jf)),
    ];
    // Energy: shear work + heat conduction on a² = γ p / ρ.
    let ke_a = 0.5 * (ua[0] * ua[0] + ua[1] * ua[1] + ua[2] * ua[2]);
    let ke_b = 0.5 * (ub[0] * ub[0] + ub[1] * ub[1] + ub[2] * ub[2]);
    let a2_a = GAMMA * pressure(qa) / qa[0];
    let a2_b = GAMMA * pressure(qb) / qb[0];
    let k_heat = mu_l / PRANDTL + mu_t / PRANDTL_T;
    let fe = coef * m1 * (mu * (ke_b - ke_a) + k_heat / (GAMMA - 1.0) * (a2_b - a2_a));

    let sign = if side > 0 { 1.0 } else { -1.0 };
    [0.0, sign * fm[0], sign * fm[1], sign * fm[2], sign * fe]
}

// ---- Case generator -----------------------------------------------------

/// Deterministic xorshift stream in [0, 1).
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        let mut s = Stream(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1);
        for _ in 0..4 {
            s.unit();
        }
        s
    }
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
    /// Uniform in [-1, 1).
    fn signed(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }
    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Case kind bits.
const THREE_D: usize = 1;
const VISCOUS: usize = 2;
const PERIODIC: usize = 4;
const LONG_LINE: usize = 8;

/// A block cut from a jittered curvilinear grid, with a random owned box,
/// random neighbours, a random physical state everywhere (halo included),
/// random Hole/Fringe blanking, grid velocity and, when viscous, eddy
/// viscosity. With `LONG_LINE` one active direction is longer than two
/// line chunks. Some cases keep a Cartesian grid or leave freestream at
/// some nodes, so exact zeros (and their signs) reach the residual.
fn random_case(kind: usize, seed: u64) -> (Block, FlowConditions) {
    let mut rng = Stream::new(seed.wrapping_mul(16).wrapping_add(kind as u64));
    let three_d = kind & THREE_D != 0;
    let mut n = [8 + rng.below(8), 6 + rng.below(5), if three_d { 5 + rng.below(3) } else { 1 }];
    if kind & LONG_LINE != 0 {
        let dir = rng.below(if three_d { 3 } else { 2 });
        n[dir] = 2 * CHUNK + 3 + rng.below(CHUNK);
    }
    let d = Dims::new(n[0], n[1], n[2]);
    let h = 0.1;
    let (jitter, wave) = if rng.chance(0.25) { (0.0, 0.0) } else { (0.2 * h, 0.05) };
    let coords = Field3::from_fn(d, |p| {
        let mut r = Stream::new(seed ^ (d.offset(p) as u64 + 1).wrapping_mul(0x2545f4914f6cdd1d));
        let x = p.i as f64 * h + jitter * r.signed();
        let y = p.j as f64 * h + wave * (p.i as f64 * 0.3).sin() + jitter * r.signed();
        let z = if three_d { p.k as f64 * h + jitter * r.signed() } else { 0.0 };
        [x, y, z]
    });
    let mut g = CurvilinearGrid::new("jittered", coords, GridKind::Background);
    g.periodic_i = kind & PERIODIC != 0;

    // Owned box: the whole grid or a piece of it in each direction.
    let mut lo = Ijk::new(0, 0, 0);
    let mut hi = Ijk::new(n[0], n[1], n[2]);
    for dir in 0..if three_d { 3 } else { 2 } {
        if rng.chance(0.5) {
            let cut = d.get(dir) / 3;
            if rng.chance(0.5) {
                lo.set(dir, rng.below(cut + 1));
            } else {
                hi.set(dir, d.get(dir) - rng.below(cut + 1));
            }
        }
    }
    let mut neighbor = [None; 6];
    for (f, nb) in neighbor.iter_mut().enumerate() {
        if f < 4 || three_d {
            *nb = rng.chance(0.5).then_some(1);
        }
    }
    let mach = 0.2 + 1.4 * rng.unit();
    let viscous = kind & VISCOUS != 0;
    let fc = FlowConditions::new(mach, 10.0 * rng.signed(), if viscous { 500.0 } else { 0.0 });
    let mut b = Block::from_grid(0, &g, IndexBox::new(lo, hi), neighbor, &fc);
    b.viscous = viscous;

    let moving = rng.chance(0.7);
    let freestream_share = if rng.chance(0.25) { 0.5 } else { 0.0 };
    for p in b.local_dims.iter() {
        let prim = [
            1.0 + 0.3 * rng.signed(),
            mach + 0.3 * rng.signed(),
            0.3 * rng.signed(),
            if three_d { 0.3 * rng.signed() } else { 0.0 },
            (1.0 + 0.3 * rng.signed()) / GAMMA,
        ];
        if !rng.chance(freestream_share) {
            b.q.set_node(p, conservatives(&prim));
        }
        b.iblank[p] = match rng.below(12) {
            0 => Blank::Hole,
            1 => Blank::Fringe,
            _ => Blank::Field,
        };
        if moving {
            b.grid_vel[p] = [0.2 * rng.signed(), 0.2 * rng.signed(), 0.1 * rng.signed()];
        }
        if viscous {
            b.mu_t[p] = 5.0 * rng.unit();
        }
    }
    (b, fc)
}

/// Run both assemblies on one case and compare every entry bit for bit.
fn check_case(kind: usize, seed: u64) -> Result<(), TestCaseError> {
    let (b, fc) = random_case(kind, seed);
    let mut want = StateField::new(b.local_dims);
    let mut got = StateField::new(b.local_dims);
    // Stale values must not leak through: the result overwrites everything.
    got.fill_uniform([f64::NAN; NVAR]);
    let want_flops = reference_residual(&b, &fc, &mut want);
    let got_flops = compute_residual(&b, &fc, &mut got);
    prop_assert!(want.as_slice().iter().any(|v| *v != 0.0), "trivial case {} {}", kind, seed);
    prop_assert_eq!(got_flops, want_flops, "flops (kind {}, seed {})", kind, seed);
    for (at, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        prop_assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "res[{:?}][{}]: {} vs {} (kind {}, seed {})",
            b.local_dims.unoffset(at / NVAR),
            at % NVAR,
            g,
            w,
            kind,
            seed
        );
    }
    Ok(())
}

/// Every case kind (2-D/3-D × inviscid/viscous × open/periodic × short/
/// long lines) on fixed seeds, so each is covered whatever proptest draws.
#[test]
fn every_case_kind_matches_the_reference() {
    for kind in 0..16 {
        for seed in 1..4 {
            check_case(kind, seed).unwrap();
        }
    }
}

#[test]
fn generator_reaches_every_feature() {
    let (mut wrap, mut seam, mut long3d_strided) = (false, false, false);
    for kind in 0..16 {
        for seed in 1..4 {
            let (b, _) = random_case(kind, seed);
            wrap |= b.self_wrap_i;
            seam |= b.periodic_i_grid && !b.self_wrap_i && b.neighbor[1].is_some();
            let owned = b.owned.dims();
            long3d_strided |= !b.two_d && owned.nj.max(owned.nk) > CHUNK + 2;
            assert!(b.iblank.as_slice().contains(&Blank::Hole), "kind {kind} seed {seed}");
            assert!(b.iblank.as_slice().contains(&Blank::Fringe), "kind {kind} seed {seed}");
        }
    }
    assert!(wrap && seam && long3d_strided, "wrap {wrap} seam {seam} long {long3d_strided}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random cases of every kind: same residual bits, same flops.
    #[test]
    fn line_residual_bit_equals_node_reference(kind in 0usize..16, seed in 1u64..(1 << 60)) {
        check_case(kind, seed)?;
    }
}
