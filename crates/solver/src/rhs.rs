//! Right-hand-side (residual) assembly for the transformed Euler /
//! thin-layer Navier–Stokes equations.
//!
//! Spatial discretization matches the paper's solver family: second-order
//! central flux differences with scalar (JST-type) 2nd/4th-difference
//! artificial dissipation, ALE grid-velocity terms for moving grids, and
//! thin-layer viscous terms in the wall-normal (η) direction.
//!
//! The residual is `dq/dt` (already divided by the cell Jacobian), so
//! `res = 0` exactly at uniform freestream on any untangled grid — verified
//! by the freestream-preservation tests.
//!
//! Assembly runs in line passes. For each active direction, every line of
//! the sweep box is walked in chunks of at most [`CHUNK`] nodes: the
//! per-node pressure, JST pressure sensor ν, spectral radius σ̂ and
//! contravariant flux F̂ are computed once into stack caches, then
//! differenced at each field node. One more pass along η-lines adds the
//! thin-layer viscous terms from cached velocity, viscosity, kinetic energy
//! and a², and a last pass divides by J. Every node still accumulates dir-0
//! flux, dir-0 dissipation, dir 1, …, viscous, `× 1/J` in that order, from
//! the same expressions as a node-by-node assembly, so the output is bit
//! for bit that of evaluating each stencil on its own.

use crate::block::{Blank, Block};
use crate::conditions::{
    pressure, sound_speed_with_pressure, sutherland_at_temperature, FlowConditions, GAMMA, PRANDTL,
    PRANDTL_T,
};
use overset_grid::field::{StateField, NVAR};
use overset_grid::index::{Dims, Ijk, IndexBox};
use overset_grid::metrics::Metric;

/// JST dissipation constants (2nd-difference sensor gain, 4th-difference
/// background gain).
pub const K2: f64 = 0.5;
pub const K4: f64 = 1.0 / 16.0;

/// Estimated flops per owned node per active direction for the flux +
/// dissipation assembly (used for virtual-time accounting).
pub const FLOPS_PER_NODE_PER_DIR: u64 = 110;
/// Estimated extra flops per owned node for thin-layer viscous terms.
pub const FLOPS_VISCOUS_PER_NODE: u64 = 90;

/// Nodes of one line assembled from one fill of the line caches; longer
/// lines are processed in chunks whose caches overlap by the stencil.
pub const CHUNK: usize = 64;
/// Cache slots per chunk: the chunk plus two stencil nodes on each side.
const SLOTS: usize = CHUNK + 4;

/// Ŝ = J ∇ξ_dir at a node.
#[inline]
fn scaled_normal(m: &Metric, dir: usize) -> [f64; 3] {
    let g = m.grad(dir);
    [g[0] * m.jac, g[1] * m.jac, g[2] * m.jac]
}

/// Contravariant flux F̂ through a face with normal `s` = Ŝ at a node of
/// state `q`, grid velocity `vg` and pressure `p_stat`, including ALE
/// grid-velocity terms.
#[inline]
fn node_flux(q: &[f64; NVAR], s: [f64; 3], vg: [f64; 3], p_stat: f64) -> [f64; NVAR] {
    let inv_rho = 1.0 / q[0];
    let u = [q[1] * inv_rho, q[2] * inv_rho, q[3] * inv_rho];
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

/// Scaled spectral radius σ̂ = |Û_rel| + c|Ŝ| at a node, from the same
/// inputs as [`node_flux`].
#[inline]
fn node_spectral_radius(q: &[f64; NVAR], s: [f64; 3], vg: [f64; 3], p_stat: f64) -> f64 {
    let s_norm = (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]).sqrt();
    let inv_rho = 1.0 / q[0];
    let u_rel = s[0] * (q[1] * inv_rho - vg[0])
        + s[1] * (q[2] * inv_rho - vg[1])
        + s[2] * (q[3] * inv_rho - vg[2]);
    u_rel.abs() + sound_speed_with_pressure(q, p_stat) * s_norm
}

/// Scaled spectral radius σ̂ = |Û_rel| + c|Ŝ| at a node for direction `dir`.
pub fn spectral_radius(block: &Block, p: Ijk, dir: usize) -> f64 {
    let q = block.q.node(p);
    node_spectral_radius(q, scaled_normal(&block.metrics[p], dir), block.grid_vel[p], pressure(q))
}

/// Range of local indices along `dir` that have valid ±1 stencil data:
/// owned nodes, shrunk by one at faces with no neighbor (physical
/// boundaries are handled by the BC module).
fn sweep_box(block: &Block) -> IndexBox {
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
        if block.owned.hi.i == gd.ni && block.periodic_i_grid {
            b.hi.set(0, b.hi.get(0) - 1);
        }
    }
    b
}

/// One chunk of one grid line: line nodes `t0..t1`, where line node `t`
/// sits at linear offset `base + t * stride` and the line has `n` nodes of
/// local storage.
#[derive(Clone, Copy)]
struct Span {
    base: usize,
    stride: usize,
    n: usize,
    t0: usize,
    t1: usize,
}

impl Span {
    /// Linear offset of line node `t`.
    #[inline]
    fn at(&self, t: usize) -> usize {
        self.base + t * self.stride
    }

    /// Cache slot of line node `t` (slot 0 is node `t0 - 2`).
    #[inline]
    fn slot(&self, t: usize) -> usize {
        t + 2 - self.t0
    }

    /// Line node `t + d`.
    #[inline]
    fn step(&self, t: usize, d: isize) -> usize {
        (t as isize + d) as usize
    }

    /// Is line node `t + d` inside local storage?
    #[inline]
    fn in_local(&self, t: usize, d: isize) -> bool {
        let c = t as isize + d;
        c >= 0 && (c as usize) < self.n
    }
}

/// Call `f` on every chunk of every line of `sweep` along `dir`. Lines are
/// visited i-fastest (j-fastest for i-lines), so consecutive strided lines
/// share cache lines.
fn for_each_span(dims: Dims, sweep: IndexBox, dir: usize, mut f: impl FnMut(Span)) {
    let strides = [1, dims.ni, dims.ni * dims.nj];
    let (inner, outer) = match dir {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    let (lo, hi) = (sweep.lo.get(dir), sweep.hi.get(dir));
    // The stencil reaches two nodes past the sweep box; the halo holds them.
    debug_assert!(lo >= hi || (lo >= 2 && hi + 2 <= dims.get(dir)));
    for o in sweep.lo.get(outer)..sweep.hi.get(outer) {
        let mut t0 = lo;
        while t0 < hi {
            let t1 = (t0 + CHUNK).min(hi);
            for i in sweep.lo.get(inner)..sweep.hi.get(inner) {
                let base = o * strides[outer] + i * strides[inner];
                f(Span { base, stride: strides[dir], n: dims.get(dir), t0, t1 });
            }
            t0 = t1;
        }
    }
}

/// The NVAR-wide node `at` of an interleaved state slice.
#[inline]
fn state(q: &[f64], at: usize) -> &[f64; NVAR] {
    q[at * NVAR..at * NVAR + NVAR].try_into().expect("slice is NVAR wide")
}

#[inline]
fn state_mut(q: &mut [f64], at: usize) -> &mut [f64; NVAR] {
    (&mut q[at * NVAR..at * NVAR + NVAR]).try_into().expect("slice is NVAR wide")
}

/// Line caches for the flux and dissipation of one chunk. Node slot `s`
/// holds line node `t0 - 2 + s`; face slot `s` holds the face between node
/// slots `s` and `s + 1`.
struct FluxLine {
    p: [f64; SLOTS],
    nu: [f64; SLOTS],
    sigma_hat: [f64; SLOTS],
    flux: [[f64; NVAR]; SLOTS],
    /// Per face: the 2nd- and 4th-difference gains and the face spectral
    /// radius. `max` and `+` commute, so both nodes of a face see the same
    /// values. The dissipation vectors themselves are not shared: the
    /// 4th-difference test and association differ between the two sides.
    eps2: [f64; SLOTS],
    eps4: [f64; SLOTS],
    sigma: [f64; SLOTS],
}

impl FluxLine {
    fn new() -> Self {
        FluxLine {
            p: [0.0; SLOTS],
            nu: [0.0; SLOTS],
            sigma_hat: [0.0; SLOTS],
            flux: [[0.0; NVAR]; SLOTS],
            eps2: [0.0; SLOTS],
            eps4: [0.0; SLOTS],
            sigma: [0.0; SLOTS],
        }
    }

    /// Add the central flux difference and JST dissipation along `dir` to
    /// the residual of every field node of `sp`.
    fn assemble(&mut self, block: &Block, dir: usize, sp: Span, res: &mut [f64]) {
        let q = block.q.as_slice();
        let metrics = block.metrics.as_slice();
        let grid_vel = block.grid_vel.as_slice();
        // Pressure on t0-2..=t1+1: ν at the flux nodes reads one node past.
        for t in sp.t0 - 2..sp.t1 + 2 {
            self.p[sp.slot(t)] = pressure(state(q, sp.at(t)));
        }
        // ν, σ̂ and F̂ on the flux nodes t0-1..=t1.
        for t in sp.t0 - 1..=sp.t1 {
            let s = sp.slot(t);
            self.nu[s] = if sp.in_local(t, 1) && sp.in_local(t, -1) {
                let (pm, pc, pp) = (self.p[s - 1], self.p[s], self.p[s + 1]);
                ((pp - 2.0 * pc + pm) / (pp + 2.0 * pc + pm).max(1e-12)).abs()
            } else {
                0.0
            };
            let at = sp.at(t);
            let n = scaled_normal(&metrics[at], dir);
            let qn = state(q, at);
            self.sigma_hat[s] = node_spectral_radius(qn, n, grid_vel[at], self.p[s]);
            self.flux[s] = node_flux(qn, n, grid_vel[at], self.p[s]);
        }
        // Face gains on the faces between flux nodes.
        for s in sp.slot(sp.t0 - 1)..sp.slot(sp.t1) {
            let eps2 = K2 * self.nu[s].max(self.nu[s + 1]);
            self.eps2[s] = eps2;
            self.eps4[s] = (K4 - eps2).max(0.0);
            self.sigma[s] = 0.5 * (self.sigma_hat[s] + self.sigma_hat[s + 1]);
        }
        for t in sp.t0..sp.t1 {
            if block.iblank.as_slice()[sp.at(t)] != Blank::Field {
                continue;
            }
            let s = sp.slot(t);
            let r = state_mut(res, sp.at(t));
            let (fp, fm) = (&self.flux[s + 1], &self.flux[s - 1]);
            for v in 0..NVAR {
                r[v] -= 0.5 * (fp[v] - fm[v]);
            }
            let d_hi = self.dissipation(block, sp, t, 1);
            let d_lo = self.dissipation(block, sp, t, -1);
            for v in 0..NVAR {
                r[v] += d_hi[v] - d_lo[v];
            }
        }
    }

    /// JST dissipative flux at the face between line node `t` and
    /// `t + side` (side = ±1), signed so the residual adds
    /// d(t+½) − d(t−½).
    fn dissipation(&self, block: &Block, sp: Span, t: usize, side: isize) -> [f64; NVAR] {
        let (q, iblank) = (block.q.as_slice(), block.iblank.as_slice());
        let t1 = sp.step(t, side);
        let face = sp.slot(t.min(t1));
        let (eps2, eps4, sigma) = (self.eps2[face], self.eps4[face], self.sigma[face]);
        let (q0, q1) = (state(q, sp.at(t)), state(q, sp.at(t1)));
        let mut d = [0.0f64; NVAR];
        // Second difference across the face.
        for v in 0..NVAR {
            d[v] = eps2 * (q1[v] - q0[v]);
        }
        // Fourth difference needs one more node on each side; degrade to
        // pure 2nd-difference when the stencil leaves local storage or
        // crosses blanked nodes.
        let stencil_ok = sp.in_local(t, -side)
            && sp.in_local(t1, side)
            && iblank[sp.at(sp.step(t, -side))] == Blank::Field
            && iblank[sp.at(sp.step(t1, side))] == Blank::Field
            && iblank[sp.at(t1)] != Blank::Hole;
        if stencil_ok {
            let qm = state(q, sp.at(sp.step(t, -side)));
            let qp = state(q, sp.at(sp.step(t1, side)));
            for v in 0..NVAR {
                let third = (qp[v] - q1[v]) - 2.0 * (q1[v] - q0[v]) + (q0[v] - qm[v]);
                d[v] -= eps4 * third;
            }
        }
        let sign = if side > 0 { 1.0 } else { -1.0 };
        for v in d.iter_mut() {
            *v *= sigma * sign;
        }
        d
    }
}

/// Coefficients of one η-face, symmetric in its two nodes (every one is a
/// product or quotient of commuting sums), so both nodes share them.
#[derive(Clone, Copy, Default)]
struct ViscousFace {
    /// Face-averaged Ŝ.
    s: [f64; 3],
    /// |Ŝ|² / J at the face.
    m1: f64,
    /// 3 J at the face.
    three_jf: f64,
    /// μ_l + μ_t.
    mu: f64,
    /// coef · μ.
    coef_mu: f64,
    /// coef · m1.
    coef_m1: f64,
    /// Heat conduction gain (μ_l / Pr + μ_t / Pr_t) / (γ − 1).
    heat: f64,
}

/// Line caches for the thin-layer viscous terms of one chunk of an η-line,
/// in the slot layout of [`FluxLine`].
struct ViscousLine {
    u: [[f64; 3]; SLOTS],
    ke: [f64; SLOTS],
    a2: [f64; SLOTS],
    mu_l: [f64; SLOTS],
    face: [ViscousFace; SLOTS],
}

impl ViscousLine {
    /// Thin layer: viscous terms act in the body-normal η direction only.
    const DIR: usize = 1;

    fn new() -> Self {
        ViscousLine {
            u: [[0.0; 3]; SLOTS],
            ke: [0.0; SLOTS],
            a2: [0.0; SLOTS],
            mu_l: [0.0; SLOTS],
            face: [ViscousFace::default(); SLOTS],
        }
    }

    /// Add the thin-layer viscous flux difference to the residual of every
    /// field node of the η-line chunk `sp`.
    fn assemble(&mut self, block: &Block, coef: f64, sp: Span, res: &mut [f64]) {
        let (q, metrics, mu_t) =
            (block.q.as_slice(), block.metrics.as_slice(), block.mu_t.as_slice());
        for t in sp.t0 - 1..=sp.t1 {
            let s = sp.slot(t);
            let qn = state(q, sp.at(t));
            let u = [qn[1] / qn[0], qn[2] / qn[0], qn[3] / qn[0]];
            self.u[s] = u;
            self.ke[s] = 0.5 * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
            // a² = γ p / ρ, which is also Sutherland's temperature.
            self.a2[s] = GAMMA * pressure(qn) / qn[0];
            self.mu_l[s] = sutherland_at_temperature(self.a2[s]);
        }
        for f in sp.t0 - 1..sp.t1 {
            let (a, b) = (sp.at(f), sp.at(f + 1));
            let (ma, mb) = (&metrics[a], &metrics[b]);
            let s = [
                0.5 * (ma.eta[0] * ma.jac + mb.eta[0] * mb.jac),
                0.5 * (ma.eta[1] * ma.jac + mb.eta[1] * mb.jac),
                0.5 * (ma.eta[2] * ma.jac + mb.eta[2] * mb.jac),
            ];
            let jf = 0.5 * (ma.jac + mb.jac);
            let m1 = (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]) / jf;
            let slot = sp.slot(f);
            let mu_l = 0.5 * (self.mu_l[slot] + self.mu_l[slot + 1]);
            let mu_t = 0.5 * (mu_t[a] + mu_t[b]);
            let mu = mu_l + mu_t;
            let k_heat = mu_l / PRANDTL + mu_t / PRANDTL_T;
            self.face[slot] = ViscousFace {
                s,
                m1,
                three_jf: 3.0 * jf,
                mu,
                coef_mu: coef * mu,
                coef_m1: coef * m1,
                heat: k_heat / (GAMMA - 1.0),
            };
        }
        for t in sp.t0..sp.t1 {
            if block.iblank.as_slice()[sp.at(t)] != Blank::Field {
                continue;
            }
            let fv_hi = self.flux(sp, t, 1);
            let fv_lo = self.flux(sp, t, -1);
            let r = state_mut(res, sp.at(t));
            for v in 0..NVAR {
                r[v] += fv_hi[v] - fv_lo[v];
            }
        }
    }

    /// Thin-layer viscous flux at the η-face between line node `t` and
    /// `t + side` (side = ±1), in the Q̂ equation and signed like
    /// [`FluxLine::dissipation`]. Not shared between the face's two nodes:
    /// the velocity jump changes sign, and so may a zero.
    fn flux(&self, sp: Span, t: usize, side: isize) -> [f64; NVAR] {
        if !sp.in_local(t, side) {
            return [0.0; NVAR];
        }
        let t1 = sp.step(t, side);
        let f = &self.face[sp.slot(t.min(t1))];
        let (a, b) = (sp.slot(t), sp.slot(t1));
        let (ua, ub) = (self.u[a], self.u[b]);
        let du = [ub[0] - ua[0], ub[1] - ua[1], ub[2] - ua[2]];
        let s = f.s;
        let s_du = s[0] * du[0] + s[1] * du[1] + s[2] * du[2];
        // Momentum: μ (m1 du + (1/3)(S·du) S / J).
        let fm = [
            f.coef_mu * (f.m1 * du[0] + s_du * s[0] / f.three_jf),
            f.coef_mu * (f.m1 * du[1] + s_du * s[1] / f.three_jf),
            f.coef_mu * (f.m1 * du[2] + s_du * s[2] / f.three_jf),
        ];
        // Energy: shear work + heat conduction on a².
        let fe =
            f.coef_m1 * (f.mu * (self.ke[b] - self.ke[a]) + f.heat * (self.a2[b] - self.a2[a]));
        let sign = if side > 0 { 1.0 } else { -1.0 };
        [0.0, sign * fm[0], sign * fm[1], sign * fm[2], sign * fe]
    }
}

/// Assemble the residual into `res` over the block's computable nodes.
/// Returns estimated flops performed.
pub fn compute_residual(block: &Block, fc: &FlowConditions, res: &mut StateField) -> u64 {
    assert_eq!(res.dims(), block.local_dims);
    let dims = block.local_dims;
    let sweep = sweep_box(block);
    let res = res.as_mut_slice();
    res.fill(0.0);

    let mut flux = FluxLine::new();
    for &dir in block.active_dirs() {
        for_each_span(dims, sweep, dir, |sp| flux.assemble(block, dir, sp, res));
    }

    let viscous = block.viscous && fc.viscous_coefficient() > 0.0;
    if viscous {
        let mut visc = ViscousLine::new();
        let coef = fc.viscous_coefficient();
        for_each_span(dims, sweep, ViscousLine::DIR, |sp| visc.assemble(block, coef, sp, res));
    }

    let (iblank, metrics) = (block.iblank.as_slice(), block.metrics.as_slice());
    let mut nodes = 0u64;
    for_each_span(dims, sweep, 0, |sp| {
        for t in sp.t0..sp.t1 {
            let at = sp.at(t);
            if iblank[at] != Blank::Field {
                continue;
            }
            nodes += 1;
            let inv_j = 1.0 / metrics[at].jac;
            for v in state_mut(res, at) {
                *v *= inv_j;
            }
        }
    });

    let dirs = block.active_dirs().len() as u64;
    let mut flops = nodes * dirs * FLOPS_PER_NODE_PER_DIR;
    if viscous {
        flops += nodes * FLOPS_VISCOUS_PER_NODE;
    }
    flops
}

/// L2 norm of the residual over owned field nodes (diagnostic).
pub fn residual_l2(block: &Block, res: &StateField) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for p in block.owned_local().iter() {
        if block.iblank[p] != Blank::Field {
            continue;
        }
        let r = res.node(p);
        sum += r.iter().map(|x| x * x).sum::<f64>();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (sum / count as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::index::Dims;

    fn uniform_block(n: usize, fc: &FlowConditions) -> Block {
        let d = Dims::new(n, n, n);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * 0.2, p.j as f64 * 0.2, p.k as f64 * 0.2]);
        let g = CurvilinearGrid::new("u", coords, GridKind::Background);
        Block::from_grid(0, &g, d.full_box(), [None; 6], fc)
    }

    #[test]
    fn freestream_preserved_on_cartesian_grid() {
        let fc = FlowConditions::new(0.8, 3.0, 0.0);
        let b = uniform_block(8, &fc);
        let mut res = StateField::new(b.local_dims);
        compute_residual(&b, &fc, &mut res);
        assert!(residual_l2(&b, &res) < 1e-13);
    }

    #[test]
    fn freestream_preserved_on_stretched_grid() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let d = Dims::new(9, 9, 9);
        let coords = Field3::from_fn(d, |p| {
            // Smoothly stretched curvilinear coordinates.
            let x = (p.i as f64 * 0.15).sinh() * 0.5;
            let y = p.j as f64 * 0.1 + 0.03 * (p.i as f64 * 0.4).sin();
            let z = p.k as f64 * 0.12;
            [x, y, z]
        });
        let g = CurvilinearGrid::new("s", coords, GridKind::Background);
        let b = Block::from_grid(0, &g, d.full_box(), [None; 6], &fc);
        let mut res = StateField::new(b.local_dims);
        compute_residual(&b, &fc, &mut res);
        // Central metrics + central fluxes commute on linear variation; for
        // generic smooth grids freestream error is at truncation level.
        assert!(residual_l2(&b, &res) < 1e-10, "res = {}", residual_l2(&b, &res));
    }

    #[test]
    fn freestream_preserved_viscous() {
        let fc = FlowConditions::new(0.8, 0.0, 1.0e6);
        let mut b = uniform_block(8, &fc);
        b.viscous = true;
        let mut res = StateField::new(b.local_dims);
        compute_residual(&b, &fc, &mut res);
        assert!(residual_l2(&b, &res) < 1e-13);
    }

    #[test]
    fn pressure_pulse_produces_outward_response() {
        let fc = FlowConditions::new(0.0, 0.0, 0.0);
        let mut b = uniform_block(9, &fc);
        // Raise pressure at the center node.
        let c = Ijk::new(4, 4, 4);
        let mut q = *b.q.node(c);
        q[4] *= 1.2;
        b.q.set_node(c, q);
        let mut res = StateField::new(b.local_dims);
        compute_residual(&b, &fc, &mut res);
        // Neighbours see incoming momentum flux (divergence of p at center).
        let right = res.node(Ijk::new(5, 4, 4));
        let left = res.node(Ijk::new(3, 4, 4));
        assert!(right[1] > 0.0, "x-momentum should increase right of pulse");
        assert!(left[1] < 0.0);
        // Center loses energy symmetrically: residual finite.
        assert!(res.node(c)[4].abs() > 0.0);
    }

    #[test]
    fn holes_and_fringes_are_skipped() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut b = uniform_block(8, &fc);
        let c = Ijk::new(4, 4, 4);
        b.iblank[c] = Blank::Hole;
        let f = Ijk::new(3, 4, 4);
        b.iblank[f] = Blank::Fringe;
        // Put garbage in the hole: must not contaminate its own residual.
        b.q.set_node(c, [1.0, 9.0, 9.0, 9.0, 99.0]);
        let mut res = StateField::new(b.local_dims);
        compute_residual(&b, &fc, &mut res);
        assert_eq!(*res.node(c), [0.0; 5]);
        assert_eq!(*res.node(f), [0.0; 5]);
    }

    #[test]
    fn moving_grid_uniform_flow_in_grid_frame() {
        // Grid translating with the fluid: relative flux vanishes except for
        // the pressure terms, which are constant: residual ~ 0.
        let fc = FlowConditions::new(0.5, 0.0, 0.0);
        let mut b = uniform_block(8, &fc);
        for v in b.grid_vel.as_mut_slice() {
            *v = [0.5, 0.0, 0.0];
        }
        let mut res = StateField::new(b.local_dims);
        compute_residual(&b, &fc, &mut res);
        assert!(residual_l2(&b, &res) < 1e-13);
    }

    #[test]
    fn spectral_radius_positive_and_scales() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = uniform_block(6, &fc);
        let p = Ijk::new(3, 3, 3);
        let s = spectral_radius(&b, p, 0);
        assert!(s > 0.0);
        // |Û| + c|Ŝ| with h = 0.2: Ŝ = J∇ξ = h² ; σ̂ = (0.8 + 1) h².
        let expect = (0.8 + 1.0) * 0.04;
        assert!((s - expect).abs() < 1e-9, "sigma {s} expect {expect}");
    }

    #[test]
    fn viscous_shear_decays_toward_uniform() {
        // A shear layer in u(y) must produce momentum diffusion with the
        // right sign: residual accelerates slow fluid, decelerates fast.
        // Low Reynolds number so physical viscosity dominates the JST
        // background dissipation in this sign check.
        let fc = FlowConditions::new(0.5, 0.0, 10.0);
        let mut b = uniform_block(9, &fc);
        b.viscous = true;
        for p in b.local_dims.iter() {
            // Inflection at local j = 6 (mid-block, inside the sweep box).
            let u = 0.1 * (p.j as f64 - 6.0).tanh();
            let prim = [1.0, u, 0.0, 0.0, 1.0 / GAMMA];
            b.q.set_node(p, crate::conditions::conservatives(&prim));
        }
        let mut res = StateField::new(b.local_dims);
        compute_residual(&b, &fc, &mut res);
        // Above the inflection u is concave (u'' < 0) so du/dt < 0; below,
        // convex so du/dt > 0.
        let above = res.node(Ijk::new(6, 8, 6));
        let below = res.node(Ijk::new(6, 4, 6));
        assert!(above[1] < 0.0, "above: {above:?}");
        assert!(below[1] > 0.0, "below: {below:?}");
    }
}
