//! Diagonalized approximate-factorization implicit scheme
//! (Pulliam–Chaussee diagonal algorithm).
//!
//! The update solves, per timestep,
//!
//! ```text
//! T_ξ (I + Δt Λ_ξ δ_ξ − D_i) T_ξ⁻¹ · T_η (…) T_η⁻¹ · T_ζ (…) T_ζ⁻¹ Δq = Δt R(qⁿ)
//! ```
//!
//! Per direction, the conservative increment is transformed to local
//! characteristic variables (entropy, two shears, two acoustics), each
//! characteristic field is solved with its own scalar tridiagonal system —
//! signed eigenvalue `λ_m ∈ {Ũ, Ũ, Ũ, Ũ±c̃}` central-implicit plus an
//! implicit second-difference smoothing `β σ` — and transformed back. The
//! signed implicit advection is what makes the factored scheme stable at the
//! CFL numbers the paper's unsteady cases run at; the implicit dissipation
//! dominates the explicit JST terms (β ≥ 2·k₄ rule).
//!
//! Lines that cross subdomain boundaries are solved with the *pipelined
//! distributed Thomas* algorithm (see [`crate::tridiag`]): implicitness is
//! maintained across subdomains, so the update is independent of the
//! processor count — the N-rank result is bit-identical to the serial one.

use crate::block::{Blank, Block};
use crate::conditions::{sound_speed, FlowConditions, GAMMA};
use crate::kernels::{self, NVW};
use crate::lanes::{select_isa, Isa, W};
use overset_grid::field::{StateField, NVAR};
use overset_grid::index::Ijk;

/// Implicit second-difference smoothing coefficient (×σ).
pub const BETA: f64 = 0.25;

/// Number of line chunks per sweep used for pipelined-Thomas overlap across
/// subdomain boundaries.
pub const PIPELINE_CHUNKS: usize = 8;

/// Flops per owned node per direction for the implicit sweep
/// (characteristic transforms + 5 scalar eliminations).
pub const FLOPS_PER_NODE_PER_DIR: u64 = 180;

/// Communication hooks the solver needs from the runtime: halo exchange and
/// pipelined line-solve carries. A [`SerialComm`] no-op implementation runs
/// single-block grids; the driver crate implements this over the
/// message-passing runtime.
pub trait SolverComm {
    /// Fill halo layers of `q` from face neighbors (including periodic
    /// wraps). Called once per step before the residual evaluation.
    fn exchange_halo(&mut self, block: &mut Block);
    /// Send pipelined line-solve data for `dir` to the adjacent rank
    /// (`downstream = true`: toward increasing index).
    fn send_line(&mut self, block: &Block, dir: usize, downstream: bool, data: Vec<f64>);
    /// Receive pipelined line-solve data of length `len`.
    fn recv_line(&mut self, block: &Block, dir: usize, from_upstream: bool, len: usize)
        -> Vec<f64>;
    /// Account compute work performed inside the sweep (so pipelined carry
    /// messages are stamped with clocks that include the elimination work
    /// preceding them). Serial implementations may ignore it.
    fn compute(&mut self, _flops: u64) {}
    /// Current virtual time, seconds. Serial implementations have no clock
    /// and report 0.
    fn now(&self) -> f64 {
        0.0
    }
    /// Record a completed trace span from virtual time `start` to now.
    /// No-op by default; the message-passing runtime forwards this to its
    /// tracer, so solver stages show up on the virtual timeline.
    fn trace_span(&mut self, _cat: &'static str, _name: &'static str, _start: f64) {}
}

/// Serial communicator: single block per grid; periodic wrap filled locally.
pub struct SerialComm;

impl SolverComm for SerialComm {
    fn exchange_halo(&mut self, block: &mut Block) {
        if block.self_wrap_i {
            block.fill_self_wrap();
        }
    }
    fn send_line(&mut self, _: &Block, _: usize, _: bool, _: Vec<f64>) {
        unreachable!("serial blocks have no line neighbors");
    }
    fn recv_line(&mut self, _: &Block, _: usize, _: bool, _: usize) -> Vec<f64> {
        unreachable!("serial blocks have no line neighbors");
    }
}

/// Does the block have an *implicit-coupled* neighbor along `dir`?
/// Periodic wrap links are excluded: the implicit operator treats O-grid
/// lines as open (the wrap coupling stays explicit through the halo), the
/// same in serial and parallel.
pub fn implicit_neighbor(block: &Block, dir: usize, downstream: bool) -> Option<usize> {
    let face = 2 * dir + usize::from(downstream);
    let n = block.neighbor[face]?;
    let interior = if downstream {
        block.owned.hi.get(dir) < block.grid_dims.get(dir)
    } else {
        block.owned.lo.get(dir) > 0
    };
    interior.then_some(n)
}

/// Local characteristic frame at a node for direction `dir`.
#[derive(Clone, Copy)]
struct CharFrame {
    /// Unit metric normal.
    k: [f64; 3],
    /// Orthonormal tangents.
    t1: [f64; 3],
    t2: [f64; 3],
    /// ρ, velocity, sound speed.
    rho: f64,
    u: [f64; 3],
    c: f64,
    /// Eigenvalues per characteristic field (J-scaled): Ũ, Ũ, Ũ, Ũ+c̃, Ũ−c̃.
    lam: [f64; NVAR],
    /// Spectral radius |Ũ| + c̃ (J-scaled) for the implicit smoothing.
    sigma: f64,
}

fn char_frame(block: &Block, p: Ijk, dir: usize) -> CharFrame {
    let q = block.q.node(p);
    let m = block.metrics[p];
    let g = m.grad(dir);
    let jac = m.jac;
    let s = [g[0] * jac, g[1] * jac, g[2] * jac];
    let s_norm = (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]).sqrt().max(1e-300);
    let k = [s[0] / s_norm, s[1] / s_norm, s[2] / s_norm];
    // Deterministic tangent basis.
    let a = if k[0].abs() < 0.9 { [1.0, 0.0, 0.0] } else { [0.0, 1.0, 0.0] };
    let mut t1 = [k[1] * a[2] - k[2] * a[1], k[2] * a[0] - k[0] * a[2], k[0] * a[1] - k[1] * a[0]];
    let n1 = (t1[0] * t1[0] + t1[1] * t1[1] + t1[2] * t1[2]).sqrt();
    for t in t1.iter_mut() {
        *t /= n1;
    }
    let t2 =
        [k[1] * t1[2] - k[2] * t1[1], k[2] * t1[0] - k[0] * t1[2], k[0] * t1[1] - k[1] * t1[0]];
    let rho = q[0];
    let u = [q[1] / rho, q[2] / rho, q[3] / rho];
    let c = sound_speed(q);
    let vg = block.grid_vel[p];
    let u_rel_n = s[0] * (u[0] - vg[0]) + s[1] * (u[1] - vg[1]) + s[2] * (u[2] - vg[2]);
    let u_tilde = u_rel_n / jac;
    let c_tilde = c * s_norm / jac;
    CharFrame {
        k,
        t1,
        t2,
        rho,
        u,
        c,
        lam: [u_tilde, u_tilde, u_tilde, u_tilde + c_tilde, u_tilde - c_tilde],
        sigma: u_tilde.abs() + c_tilde,
    }
}

/// Conservative increment → characteristic variables at the frame. The
/// batched kernel [`kernels::frames_forward_lanes`] computes the same
/// transform lanewise; this scalar form is the reference the tests pin
/// bit-equality against.
#[inline]
#[cfg_attr(not(test), allow(dead_code))]
fn to_char(f: &CharFrame, dq: &[f64; NVAR]) -> [f64; NVAR] {
    // ΔQ → Δprimitive.
    let d_rho = dq[0];
    let du = [
        (dq[1] - f.u[0] * d_rho) / f.rho,
        (dq[2] - f.u[1] * d_rho) / f.rho,
        (dq[3] - f.u[2] * d_rho) / f.rho,
    ];
    let ke = 0.5 * (f.u[0] * f.u[0] + f.u[1] * f.u[1] + f.u[2] * f.u[2]);
    let dp =
        (GAMMA - 1.0) * (dq[4] + ke * d_rho - f.u[0] * dq[1] - f.u[1] * dq[2] - f.u[2] * dq[3]);
    // Δprimitive → characteristic.
    let un = f.k[0] * du[0] + f.k[1] * du[1] + f.k[2] * du[2];
    let c2 = f.c * f.c;
    [
        d_rho - dp / c2,
        f.t1[0] * du[0] + f.t1[1] * du[1] + f.t1[2] * du[2],
        f.t2[0] * du[0] + f.t2[1] * du[1] + f.t2[2] * du[2],
        un + dp / (f.rho * f.c),
        un - dp / (f.rho * f.c),
    ]
}

/// Characteristic variables → conservative increment at the frame. Scalar
/// reference for [`kernels::from_char_lanes`], kept for the equality tests.
#[inline]
#[cfg_attr(not(test), allow(dead_code))]
fn from_char(f: &CharFrame, w: &[f64; NVAR]) -> [f64; NVAR] {
    let dp = 0.5 * f.rho * f.c * (w[3] - w[4]);
    let un = 0.5 * (w[3] + w[4]);
    let d_rho = w[0] + dp / (f.c * f.c);
    let du = [
        f.t1[0] * w[1] + f.t2[0] * w[2] + f.k[0] * un,
        f.t1[1] * w[1] + f.t2[1] * w[2] + f.k[1] * un,
        f.t1[2] * w[1] + f.t2[2] * w[2] + f.k[2] * un,
    ];
    let ke = 0.5 * (f.u[0] * f.u[0] + f.u[1] * f.u[1] + f.u[2] * f.u[2]);
    [
        d_rho,
        f.u[0] * d_rho + f.rho * du[0],
        f.u[1] * d_rho + f.rho * du[1],
        f.u[2] * d_rho + f.rho * du[2],
        ke * d_rho
            + f.rho * (f.u[0] * du[0] + f.u[1] * du[1] + f.u[2] * du[2])
            + dp / (GAMMA - 1.0),
    ]
}

/// Reusable sweep scratch: the runtime-selected kernel [`Isa`] plus every
/// buffer [`implicit_sweeps`] needs, so steady-state steps allocate nothing
/// in the solver phase. Owned per rank by [`crate::step::Scratch`]; buffers
/// grow to the largest sweep seen and are then recycled.
pub struct SweepScratch {
    /// Kernel instruction set, chosen once per run from `use_simd` plus
    /// runtime feature detection (see [`crate::lanes::select_isa`]). The
    /// scalar and SIMD paths run the same lane-batched code and produce
    /// bit-identical results.
    pub isa: Isa,
    /// Gathered per-node frame inputs, characteristic work vectors, and the
    /// frame SoA (see `kernels::IN_*` / `kernels::FR_*`) for the direction
    /// currently being swept.
    gin: Vec<f64>,
    dw: Vec<f64>,
    fr: Vec<f64>,
    /// Per-line halo frames (`c = -1` and `c = n`), two per line.
    halo: Vec<CharFrame>,
    lines: Vec<(usize, usize)>,
    /// Lane-transposed eigenvalues / spectral radii / identity masks for the
    /// group currently being eliminated.
    lam: Vec<f64>,
    sig: Vec<f64>,
    idm: Vec<f64>,
    /// Group-major lane-transposed RHS, normalized super-diagonals, and the
    /// Sherman–Morrison correction column (every group padded to [`W`] lanes).
    d: Vec<f64>,
    cp: Vec<f64>,
    z: Vec<f64>,
    /// Per-line cyclic corner parameters and chain-end values.
    alpha: Vec<[f64; NVAR]>,
    gamma: Vec<[f64; NVAR]>,
    y_last: Vec<[f64; NVAR]>,
    z_last: Vec<[f64; NVAR]>,
    fact: Vec<[f64; NVAR]>,
    x0: Vec<[f64; NVAR]>,
}

impl SweepScratch {
    pub fn new(isa: Isa) -> Self {
        Self {
            isa,
            gin: Vec::new(),
            dw: Vec::new(),
            fr: Vec::new(),
            halo: Vec::new(),
            lines: Vec::new(),
            lam: Vec::new(),
            sig: Vec::new(),
            idm: Vec::new(),
            d: Vec::new(),
            cp: Vec::new(),
            z: Vec::new(),
            alpha: Vec::new(),
            gamma: Vec::new(),
            y_last: Vec::new(),
            z_last: Vec::new(),
            fact: Vec::new(),
            x0: Vec::new(),
        }
    }
}

impl Default for SweepScratch {
    fn default() -> Self {
        Self::new(select_isa(true))
    }
}

fn ensure_len(v: &mut Vec<f64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// Lane-batched frame + forward-transform stage of a sweep: gather the
/// per-node inputs of every owned node into SoA buffers, run
/// [`kernels::frames_forward_lanes`] (frames into `fr`, `dq` transformed to
/// characteristic variables in place), and compute the two scalar halo
/// frames per line. Returns the padded SoA stride `mpad`.
#[allow(clippy::too_many_arguments)]
fn transform_to_char(
    block: &Block,
    dq: &mut StateField,
    dir: usize,
    node_at: &impl Fn(usize, usize) -> Ijk,
    halo_node: &impl Fn(usize, isize) -> Ijk,
    n: usize,
    nlines: usize,
    isa: Isa,
    gin: &mut Vec<f64>,
    dw: &mut Vec<f64>,
    fr: &mut Vec<f64>,
    halo: &mut Vec<CharFrame>,
) -> usize {
    use crate::kernels::{IN_FIELDS, IN_G, IN_JAC, IN_Q, IN_VG};
    let mm = n * nlines;
    let mpad = mm.div_ceil(W) * W;
    ensure_len(gin, IN_FIELDS * mpad);
    ensure_len(dw, NVAR * mpad);
    ensure_len(fr, crate::kernels::FR_FIELDS * mpad);
    for li in 0..nlines {
        for c in 0..n {
            let m = li * n + c;
            let p = node_at(li, c);
            let q = block.q.node(p);
            for v in 0..NVAR {
                gin[(IN_Q + v) * mpad + m] = q[v];
            }
            let met = block.metrics[p];
            let g = met.grad(dir);
            gin[IN_G * mpad + m] = g[0];
            gin[(IN_G + 1) * mpad + m] = g[1];
            gin[(IN_G + 2) * mpad + m] = g[2];
            gin[IN_JAC * mpad + m] = met.jac;
            let vg = block.grid_vel[p];
            gin[IN_VG * mpad + m] = vg[0];
            gin[(IN_VG + 1) * mpad + m] = vg[1];
            gin[(IN_VG + 2) * mpad + m] = vg[2];
            let w = dq.node(p);
            for v in 0..NVAR {
                dw[v * mpad + m] = w[v];
            }
        }
    }
    // Ragged tail: replicate the last real node into the padding lanes
    // (their outputs are never scattered back).
    for m in mm..mpad {
        for f in 0..IN_FIELDS {
            gin[f * mpad + m] = gin[f * mpad + mm - 1];
        }
        for v in 0..NVAR {
            dw[v * mpad + m] = dw[v * mpad + mm - 1];
        }
    }
    kernels::frames_forward_lanes(isa, mpad, gin, dw, fr);
    for li in 0..nlines {
        for c in 0..n {
            let m = li * n + c;
            let mut w = [0.0f64; NVAR];
            for v in 0..NVAR {
                w[v] = dw[v * mpad + m];
            }
            dq.set_node(node_at(li, c), w);
        }
    }
    halo.clear();
    halo.reserve(2 * nlines);
    for li in 0..nlines {
        halo.push(char_frame(block, halo_node(li, -1), dir));
        halo.push(char_frame(block, halo_node(li, n as isize), dir));
    }
    mpad
}

/// Gather one lane group into the transposed sweep layout: eigenvalue rows
/// (shifted by one so rows `0` / `n + 1` are the halo frames), spectral
/// radii, sign-bit identity masks, and the characteristic RHS. Ragged groups
/// replicate their last real line into the padding lanes (padding output is
/// never read).
#[allow(clippy::too_many_arguments)]
fn pack_group(
    block: &Block,
    dq: &StateField,
    node_at: &impl Fn(usize, usize) -> Ijk,
    ls_of: &impl Fn(usize, isize) -> ([f64; NVAR], f64),
    gb: usize,
    gl: usize,
    n: usize,
    lam: &mut [f64],
    sig: &mut [f64],
    idm: &mut [f64],
    d: &mut [f64],
) {
    for l in 0..W {
        let li = gb + l.min(gl - 1);
        for r in 0..n + 2 {
            let (flam, fsig) = ls_of(li, r as isize - 1);
            for v in 0..NVAR {
                lam[(r * NVAR + v) * W + l] = flam[v];
            }
            sig[r * W + l] = fsig;
        }
        for c in 0..n {
            let p = node_at(li, c);
            idm[c * W + l] =
                if block.iblank[p] != Blank::Field { f64::from_bits(1u64 << 63) } else { 0.0 };
            let w = dq.node(p);
            for v in 0..NVAR {
                d[(c * NVAR + v) * W + l] = w[v];
            }
        }
    }
}

/// Perform the factored characteristic sweeps in place on `dq` (which enters
/// holding `Δt·R` in conservative variables), batching up to [`W`] lines per
/// SIMD lane group through the kernels in [`crate::kernels`]. Returns
/// estimated flops.
pub fn implicit_sweeps(
    block: &Block,
    fc: &FlowConditions,
    dq: &mut StateField,
    comm: &mut impl SolverComm,
    ws: &mut SweepScratch,
) -> u64 {
    let dt = fc.dt;
    let ow = block.owned_local();
    let mut flops = 0u64;
    let t0 = comm.now();
    let mut lines_buf = std::mem::take(&mut ws.lines);

    for &dir in block.active_dirs() {
        let (d1, d2) = other_dirs(dir);
        let n = ow.dims().get(dir);
        lines_buf.clear();
        for c2 in ow.lo.get(d2)..ow.hi.get(d2) {
            for c1 in ow.lo.get(d1)..ow.hi.get(d1) {
                lines_buf.push((c1, c2));
            }
        }
        let lines = &lines_buf;
        let nlines = lines.len();
        let upstream = implicit_neighbor(block, dir, false);
        let downstream = implicit_neighbor(block, dir, true);

        let node_at = |li: usize, c: usize| -> Ijk {
            let (c1, c2) = lines[li];
            let mut p = Ijk::new(0, 0, 0);
            p.set(dir, ow.lo.get(dir) + c);
            p.set(d1, c1);
            p.set(d2, c2);
            p
        };

        // Lane-batched frame computation + forward transform (`dq` → char):
        // the SoA frames land in `ws.fr`, halo frames in `ws.halo`.
        let halo_node = |li: usize, c: isize| -> Ijk {
            let mut p = node_at(li, 0);
            let base = ow.lo.get(dir) as isize + c;
            p.set(dir, base.max(0) as usize);
            p
        };
        let mpad = transform_to_char(
            block,
            dq,
            dir,
            &node_at,
            &halo_node,
            n,
            nlines,
            ws.isa,
            &mut ws.gin,
            &mut ws.dw,
            &mut ws.fr,
            &mut ws.halo,
        );

        // Periodic O-grid lines in `i` are solved with the *cyclic*
        // (Sherman–Morrison) algorithm — the seam coupling must be implicit:
        // the smallest azimuthal cells sit right at the wrap, and leaving
        // them explicitly coupled blows up at fine resolution.
        let periodic = dir == 0 && periodic_in_i(block);
        if periodic {
            flops += periodic_sweep_i(block, dt, dq, comm, lines, n, mpad, ow, ws);
        } else {
            // Frame (σ, λ) rows for the implicit coefficients: owned rows
            // from the SoA, halo rows from the per-line halo frames.
            let fr = &ws.fr;
            let halo = &ws.halo;
            let ls_of = |li: usize, c: isize| -> ([f64; NVAR], f64) {
                if c >= 0 && (c as usize) < n {
                    let m = li * n + c as usize;
                    let mut lamv = [0.0f64; NVAR];
                    for (v, x) in lamv.iter_mut().enumerate() {
                        *x = fr[(kernels::FR_LAM + v) * mpad + m];
                    }
                    (lamv, fr[kernels::FR_SIG * mpad + m])
                } else {
                    let h = &halo[li * 2 + usize::from(c >= 0)];
                    (h.lam, h.sigma)
                }
            };
            // Forward elimination (5 independent tridiagonal systems per
            // line), *wavefront pipelined*: lines are processed in chunks;
            // each chunk's boundary carries are exchanged as soon as the
            // chunk is eliminated, so downstream ranks work on earlier chunks
            // while this rank eliminates later ones (the standard
            // pipelined-Thomas overlap). Within each chunk, lines are
            // eliminated in lane groups of up to `W` — one SIMD lane per
            // line, each lane running the exact scalar recurrence.
            let nchunks = if upstream.is_some() || downstream.is_some() {
                PIPELINE_CHUNKS.min(nlines.max(1))
            } else {
                1
            };
            let chunk_bounds = |ch: usize| -> (usize, usize) {
                let lo = nlines * ch / nchunks;
                let hi = nlines * (ch + 1) / nchunks;
                (lo, hi)
            };
            let gstride = n * NVAR * W;
            let ngroups: usize = (0..nchunks)
                .map(|ch| {
                    let (lo, hi) = chunk_bounds(ch);
                    (hi - lo).div_ceil(W)
                })
                .sum();
            ensure_len(&mut ws.d, ngroups * gstride);
            ensure_len(&mut ws.cp, ngroups * gstride);
            ensure_len(&mut ws.lam, (n + 2) * NVAR * W);
            ensure_len(&mut ws.sig, (n + 2) * W);
            ensure_len(&mut ws.idm, n * W);

            let mut g = 0usize;
            for ch in 0..nchunks {
                let (clo, chi) = chunk_bounds(ch);
                let chunk_lines = chi - clo;
                let carries_in: Option<Vec<f64>> =
                    upstream.map(|_| comm.recv_line(block, dir, true, chunk_lines * 2 * NVAR));
                let mut carries_out: Vec<f64> = Vec::new();
                let mut gb = clo;
                while gb < chi {
                    let gl = (chi - gb).min(W);
                    let goff = g * gstride;
                    g += 1;
                    pack_group(
                        block,
                        dq,
                        &node_at,
                        &ls_of,
                        gb,
                        gl,
                        n,
                        &mut ws.lam,
                        &mut ws.sig,
                        &mut ws.idm,
                        &mut ws.d[goff..goff + gstride],
                    );
                    let mut ccp = [0.0f64; NVW];
                    let mut cdp = [0.0f64; NVW];
                    if let Some(ci) = &carries_in {
                        for l in 0..W {
                            let base = (gb + l.min(gl - 1) - clo) * 2 * NVAR;
                            for v in 0..NVAR {
                                ccp[v * W + l] = ci[base + v];
                                cdp[v * W + l] = ci[base + NVAR + v];
                            }
                        }
                    }
                    kernels::sweep_forward_group(
                        ws.isa,
                        dt,
                        n,
                        &ws.lam,
                        &ws.sig,
                        &ws.idm,
                        &mut ws.d[goff..goff + gstride],
                        &mut ws.cp[goff..goff + gstride],
                        &mut ccp,
                        &mut cdp,
                        carries_in.is_some(),
                    );
                    if downstream.is_some() {
                        for l in 0..gl {
                            for v in 0..NVAR {
                                carries_out.push(ccp[v * W + l]);
                            }
                            for v in 0..NVAR {
                                carries_out.push(cdp[v * W + l]);
                            }
                        }
                    }
                    gb += gl;
                }
                // Charge this chunk's transform + elimination work before its
                // carry message is stamped.
                comm.compute((n * chunk_lines) as u64 * (FLOPS_PER_NODE_PER_DIR * 7 / 10));
                if downstream.is_some() {
                    comm.send_line(block, dir, true, carries_out);
                }
            }

            // Back substitution, pipelined the same way (upstream direction).
            let mut g = 0usize;
            for ch in 0..nchunks {
                let (clo, chi) = chunk_bounds(ch);
                let chunk_lines = chi - clo;
                let x_down: Option<Vec<f64>> =
                    downstream.map(|_| comm.recv_line(block, dir, false, chunk_lines * NVAR));
                let mut firsts: Vec<f64> = Vec::new();
                let mut gb = clo;
                while gb < chi {
                    let gl = (chi - gb).min(W);
                    let goff = g * gstride;
                    g += 1;
                    let seed: Option<[f64; NVW]> = x_down.as_ref().map(|xd| {
                        let mut s = [0.0f64; NVW];
                        for l in 0..W {
                            let base = (gb + l.min(gl - 1) - clo) * NVAR;
                            for v in 0..NVAR {
                                s[v * W + l] = xd[base + v];
                            }
                        }
                        s
                    });
                    kernels::sweep_backward_group(
                        ws.isa,
                        n,
                        &ws.cp[goff..goff + gstride],
                        &mut ws.d[goff..goff + gstride],
                        seed.as_ref(),
                    );
                    for l in 0..gl {
                        let li = gb + l;
                        for c in 0..n {
                            let p = node_at(li, c);
                            let mut w = [0.0f64; NVAR];
                            for (v, wv) in w.iter_mut().enumerate() {
                                *wv = ws.d[goff + (c * NVAR + v) * W + l];
                            }
                            dq.set_node(p, w);
                        }
                        if upstream.is_some() {
                            for v in 0..NVAR {
                                firsts.push(ws.d[goff + v * W + l]);
                            }
                        }
                    }
                    gb += gl;
                }
                comm.compute((n * chunk_lines) as u64 * (FLOPS_PER_NODE_PER_DIR * 2 / 10));
                if upstream.is_some() {
                    comm.send_line(block, dir, false, firsts);
                }
            }
        }

        // Transform back to conservative increments (lane-batched).
        for li in 0..nlines {
            for c in 0..n {
                let m = li * n + c;
                let w = dq.node(node_at(li, c));
                for (v, &wv) in w.iter().enumerate() {
                    ws.dw[v * mpad + m] = wv;
                }
            }
        }
        kernels::from_char_lanes(ws.isa, mpad, &ws.fr, &mut ws.dw);
        for li in 0..nlines {
            for c in 0..n {
                let m = li * n + c;
                let mut w = [0.0f64; NVAR];
                for (v, wv) in w.iter_mut().enumerate() {
                    *wv = ws.dw[v * mpad + m];
                }
                dq.set_node(node_at(li, c), w);
            }
        }

        if !periodic {
            let rest = (n * nlines) as u64
                * (FLOPS_PER_NODE_PER_DIR
                    - FLOPS_PER_NODE_PER_DIR * 7 / 10
                    - FLOPS_PER_NODE_PER_DIR * 2 / 10);
            comm.compute(rest);
            flops += (n * nlines) as u64 * FLOPS_PER_NODE_PER_DIR;
        }
    }
    ws.lines = lines_buf;
    comm.trace_span("solver", "implicit_sweeps", t0);
    flops
}

/// Is the block part of an O-grid that wraps periodically in `i`?
fn periodic_in_i(block: &Block) -> bool {
    block.periodic_i_grid
}

/// Tridiagonal row for characteristic variable `v` at a node, from the
/// frames of its `i∓1`, own, and `i±1` nodes. The batched kernels compute
/// the same coefficients lanewise (`kernels::coeffs`); this scalar form is
/// kept as the reference the tests verify against.
#[inline]
#[cfg_attr(not(test), allow(dead_code))]
fn row_abc(
    fm: &CharFrame,
    f0: &CharFrame,
    fp: &CharFrame,
    dt: f64,
    v: usize,
    identity: bool,
) -> (f64, f64, f64) {
    if identity {
        (0.0, 1.0, 0.0)
    } else {
        (
            dt * (-0.5 * fm.lam[v] - BETA * fm.sigma),
            1.0 + 2.0 * BETA * dt * f0.sigma,
            dt * (0.5 * fp.lam[v] - BETA * fp.sigma),
        )
    }
}

/// Cyclic (periodic) implicit solve along `i` for an O-grid block, via the
/// Sherman–Morrison splitting. The duplicated seam node (global `ni-1`) is
/// excluded from the solve and set equal to node 0's solution afterwards.
///
/// Distributed form over the open rank chain: forward/backward pipelined
/// elimination of *two* right-hand sides per characteristic field (the
/// physical RHS `y` and the rank-one correction column `z`), then a third
/// short sweep broadcasting the per-line correction factor.
#[allow(clippy::too_many_arguments)]
fn periodic_sweep_i(
    block: &Block,
    dt: f64,
    dq: &mut StateField,
    comm: &mut impl SolverComm,
    lines: &[(usize, usize)],
    n_own: usize,
    mpad: usize,
    ow: overset_grid::index::IndexBox,
    ws: &mut SweepScratch,
) -> u64 {
    const DIR: usize = 0;
    let nlines = lines.len();
    let is_first = block.owned.lo.i == 0;
    let is_last = block.owned.hi.i == block.grid_dims.ni;
    // Exclude the duplicated seam node from the cyclic system.
    let n = if is_last { n_own - 1 } else { n_own };
    assert!(n >= 1);
    let upstream = implicit_neighbor(block, DIR, false);
    let downstream = implicit_neighbor(block, DIR, true);

    let node_at = |li: usize, c: usize| -> Ijk {
        let (c1, c2) = lines[li];
        Ijk::new(ow.lo.i + c, c1, c2)
    };
    // Frame (σ, λ) rows: owned from the SoA computed by
    // `transform_to_char` (stride `n_own`), halo from the per-line frames.
    let fr = &ws.fr;
    let halo = &ws.halo;
    let ls_of = |li: usize, c: isize| -> ([f64; NVAR], f64) {
        if c >= 0 && (c as usize) < n_own {
            let m = li * n_own + c as usize;
            let mut lamv = [0.0f64; NVAR];
            for (v, x) in lamv.iter_mut().enumerate() {
                *x = fr[(kernels::FR_LAM + v) * mpad + m];
            }
            (lamv, fr[kernels::FR_SIG * mpad + m])
        } else {
            let h = &halo[li * 2 + usize::from(c >= 0)];
            (h.lam, h.sigma)
        }
    };

    let nchunks = if upstream.is_some() || downstream.is_some() {
        PIPELINE_CHUNKS.min(nlines.max(1))
    } else {
        1
    };
    let chunk_bounds =
        |ch: usize| -> (usize, usize) { (nlines * ch / nchunks, nlines * (ch + 1) / nchunks) };

    // Lane-transposed per-row storage (group-major, padded to `W` lanes):
    // the physical RHS y, the normalized super-diagonals, and the rank-one
    // correction column z.
    let gstride = n * NVAR * W;
    let ngroups: usize = (0..nchunks)
        .map(|ch| {
            let (lo, hi) = chunk_bounds(ch);
            (hi - lo).div_ceil(W)
        })
        .sum();
    ensure_len(&mut ws.d, ngroups * gstride);
    ensure_len(&mut ws.cp, ngroups * gstride);
    ensure_len(&mut ws.z, ngroups * gstride);
    ensure_len(&mut ws.lam, (n + 2) * NVAR * W);
    ensure_len(&mut ws.sig, (n + 2) * W);
    ensure_len(&mut ws.idm, n * W);
    // Per-line S-M parameters (alpha, gamma per variable), valid on every
    // rank after the forward pass (carried down the chain).
    ws.alpha.clear();
    ws.alpha.resize(nlines, [0.0f64; NVAR]);
    ws.gamma.clear();
    ws.gamma.resize(nlines, [0.0f64; NVAR]);

    // ---- Forward elimination of y and z -------------------------------
    let mut g = 0usize;
    for ch in 0..nchunks {
        let (clo, chi) = chunk_bounds(ch);
        let chunk_lines = chi - clo;
        // Carry layout per line: cp[5], y[5], z[5], alpha[5], gamma[5].
        let carries_in: Option<Vec<f64>> =
            upstream.map(|_| comm.recv_line(block, DIR, true, chunk_lines * 5 * NVAR));
        if let Some(ci) = &carries_in {
            for li in clo..chi {
                let base = (li - clo) * 5 * NVAR;
                ws.alpha[li].copy_from_slice(&ci[base + 3 * NVAR..base + 4 * NVAR]);
                ws.gamma[li].copy_from_slice(&ci[base + 4 * NVAR..base + 5 * NVAR]);
            }
        }
        let mut carries_out: Vec<f64> = Vec::new();
        let mut gb = clo;
        while gb < chi {
            let gl = (chi - gb).min(W);
            let goff = g * gstride;
            g += 1;
            pack_group(
                block,
                dq,
                &node_at,
                &ls_of,
                gb,
                gl,
                n,
                &mut ws.lam,
                &mut ws.sig,
                &mut ws.idm,
                &mut ws.d[goff..goff + gstride],
            );
            let mut ccp = [0.0f64; NVW];
            let mut cy = [0.0f64; NVW];
            let mut cz = [0.0f64; NVW];
            let mut al = [0.0f64; NVW];
            let mut ga = [0.0f64; NVW];
            for l in 0..W {
                let li = gb + l.min(gl - 1);
                for v in 0..NVAR {
                    al[v * W + l] = ws.alpha[li][v];
                    ga[v * W + l] = ws.gamma[li][v];
                }
                if let Some(ci) = &carries_in {
                    let base = (li - clo) * 5 * NVAR;
                    for v in 0..NVAR {
                        ccp[v * W + l] = ci[base + v];
                        cy[v * W + l] = ci[base + NVAR + v];
                        cz[v * W + l] = ci[base + 2 * NVAR + v];
                    }
                }
            }
            kernels::periodic_forward_group(
                ws.isa,
                dt,
                n,
                &ws.lam,
                &ws.sig,
                &ws.idm,
                &mut ws.d[goff..goff + gstride],
                &mut ws.z[goff..goff + gstride],
                &mut ws.cp[goff..goff + gstride],
                &mut al,
                &mut ga,
                &mut ccp,
                &mut cy,
                &mut cz,
                carries_in.is_some(),
                is_first,
                is_last,
            );
            for l in 0..gl {
                let li = gb + l;
                for v in 0..NVAR {
                    ws.alpha[li][v] = al[v * W + l];
                    ws.gamma[li][v] = ga[v * W + l];
                }
            }
            if downstream.is_some() {
                for l in 0..gl {
                    let li = gb + l;
                    for v in 0..NVAR {
                        carries_out.push(ccp[v * W + l]);
                    }
                    for v in 0..NVAR {
                        carries_out.push(cy[v * W + l]);
                    }
                    for v in 0..NVAR {
                        carries_out.push(cz[v * W + l]);
                    }
                    carries_out.extend_from_slice(&ws.alpha[li]);
                    carries_out.extend_from_slice(&ws.gamma[li]);
                }
            }
            gb += gl;
        }
        comm.compute((n * chunk_lines) as u64 * FLOPS_PER_NODE_PER_DIR);
        if downstream.is_some() {
            comm.send_line(block, DIR, true, carries_out);
        }
    }

    // ---- Back substitution of y and z ---------------------------------
    // Per-line end values (y_last, z_last per var) travel upstream.
    ws.y_last.clear();
    ws.y_last.resize(nlines, [0.0f64; NVAR]);
    ws.z_last.clear();
    ws.z_last.resize(nlines, [0.0f64; NVAR]);
    let mut g = 0usize;
    for ch in 0..nchunks {
        let (clo, chi) = chunk_bounds(ch);
        let chunk_lines = chi - clo;
        // Carry layout per line: y_next[5], z_next[5], y_last[5], z_last[5].
        let x_down: Option<Vec<f64>> =
            downstream.map(|_| comm.recv_line(block, DIR, false, chunk_lines * 4 * NVAR));
        let mut ups: Vec<f64> = Vec::new();
        let mut gb = clo;
        while gb < chi {
            let gl = (chi - gb).min(W);
            let goff = g * gstride;
            g += 1;
            let seed: Option<([f64; NVW], [f64; NVW])> = x_down.as_ref().map(|xd| {
                let mut sy = [0.0f64; NVW];
                let mut sz = [0.0f64; NVW];
                for l in 0..W {
                    let base = (gb + l.min(gl - 1) - clo) * 4 * NVAR;
                    for v in 0..NVAR {
                        sy[v * W + l] = xd[base + v];
                        sz[v * W + l] = xd[base + NVAR + v];
                    }
                }
                (sy, sz)
            });
            kernels::periodic_backward_group(
                ws.isa,
                n,
                &ws.cp[goff..goff + gstride],
                &mut ws.d[goff..goff + gstride],
                &mut ws.z[goff..goff + gstride],
                seed.as_ref().map(|(sy, sz)| (sy, sz)),
            );
            for l in 0..gl {
                let li = gb + l;
                if let Some(xd) = &x_down {
                    let base = (li - clo) * 4 * NVAR;
                    ws.y_last[li].copy_from_slice(&xd[base + 2 * NVAR..base + 3 * NVAR]);
                    ws.z_last[li].copy_from_slice(&xd[base + 3 * NVAR..base + 4 * NVAR]);
                } else {
                    // This rank owns the end of the chain: the last solved row.
                    for v in 0..NVAR {
                        ws.y_last[li][v] = ws.d[goff + ((n - 1) * NVAR + v) * W + l];
                        ws.z_last[li][v] = ws.z[goff + ((n - 1) * NVAR + v) * W + l];
                    }
                }
                if upstream.is_some() {
                    for v in 0..NVAR {
                        ups.push(ws.d[goff + v * W + l]);
                    }
                    for v in 0..NVAR {
                        ups.push(ws.z[goff + v * W + l]);
                    }
                    ups.extend_from_slice(&ws.y_last[li]);
                    ups.extend_from_slice(&ws.z_last[li]);
                }
            }
            gb += gl;
        }
        comm.compute((n * chunk_lines) as u64 * (FLOPS_PER_NODE_PER_DIR / 3));
        if upstream.is_some() {
            comm.send_line(block, DIR, false, ups);
        }
    }

    // ---- Correction sweep ----------------------------------------------
    // First rank computes fact and x0 per line/var; everyone applies
    // x = y - fact z; the last rank also fixes the duplicated seam node.
    let mut g = 0usize;
    for ch in 0..nchunks {
        let (clo, chi) = chunk_bounds(ch);
        let chunk_lines = chi - clo;
        ws.fact.clear();
        ws.fact.resize(chunk_lines, [0.0f64; NVAR]);
        ws.x0.clear();
        ws.x0.resize(chunk_lines, [0.0f64; NVAR]);
        if is_first {
            for li in clo..chi {
                let goff = (g + (li - clo) / W) * gstride;
                let lane = (li - clo) % W;
                for v in 0..NVAR {
                    let y0 = ws.d[goff + v * W + lane];
                    let z0 = ws.z[goff + v * W + lane];
                    let gam = ws.gamma[li][v];
                    let al = ws.alpha[li][v];
                    let denom = 1.0 + z0 + al * ws.z_last[li][v] / gam;
                    let f = (y0 + al * ws.y_last[li][v] / gam) / denom;
                    ws.fact[li - clo][v] = f;
                    ws.x0[li - clo][v] = y0 - f * z0;
                }
            }
        } else {
            let data = comm.recv_line(block, DIR, true, chunk_lines * 2 * NVAR);
            for l in 0..chunk_lines {
                ws.fact[l].copy_from_slice(&data[l * 2 * NVAR..l * 2 * NVAR + NVAR]);
                ws.x0[l].copy_from_slice(&data[l * 2 * NVAR + NVAR..(l + 1) * 2 * NVAR]);
            }
        }
        let mut gb = clo;
        while gb < chi {
            let gl = (chi - gb).min(W);
            let goff = g * gstride;
            g += 1;
            let mut factl = [0.0f64; NVW];
            for l in 0..W {
                let li = gb + l.min(gl - 1);
                for v in 0..NVAR {
                    factl[v * W + l] = ws.fact[li - clo][v];
                }
            }
            kernels::periodic_correct_group(
                ws.isa,
                n,
                &factl,
                &mut ws.d[goff..goff + gstride],
                &ws.z[goff..goff + gstride],
            );
            for l in 0..gl {
                let li = gb + l;
                for c in 0..n {
                    let p = node_at(li, c);
                    let mut w = [0.0f64; NVAR];
                    for (v, wv) in w.iter_mut().enumerate() {
                        *wv = ws.d[goff + (c * NVAR + v) * W + l];
                    }
                    dq.set_node(p, w);
                }
                if is_last {
                    // Duplicated seam node mirrors node 0's solution.
                    let p = node_at(li, n);
                    dq.set_node(p, ws.x0[li - clo]);
                }
            }
            gb += gl;
        }
        comm.compute((n * chunk_lines) as u64 * 4);
        if downstream.is_some() {
            let mut out = Vec::with_capacity(chunk_lines * 2 * NVAR);
            for l in 0..chunk_lines {
                out.extend_from_slice(&ws.fact[l]);
                out.extend_from_slice(&ws.x0[l]);
            }
            comm.send_line(block, DIR, true, out);
        }
    }

    // Exactly what the three passes charged, chunk by chunk.
    (n * nlines) as u64 * (FLOPS_PER_NODE_PER_DIR + FLOPS_PER_NODE_PER_DIR / 3 + 4)
}

fn other_dirs(dir: usize) -> (usize, usize) {
    match dir {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
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
    fn char_transform_roundtrip() {
        let fc = FlowConditions::new(0.8, 5.0, 0.0);
        let b = uniform_block(5, &fc);
        let p = Ijk::new(3, 3, 3);
        for dir in 0..3 {
            let f = char_frame(&b, p, dir);
            let dq = [0.1, -0.2, 0.05, 0.3, 0.7];
            let w = to_char(&f, &dq);
            let back = from_char(&f, &w);
            for v in 0..NVAR {
                assert!(
                    (back[v] - dq[v]).abs() < 1e-12,
                    "dir {dir} var {v}: {} vs {}",
                    back[v],
                    dq[v]
                );
            }
        }
    }

    #[test]
    fn eigenvalues_ordered_and_consistent() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = uniform_block(5, &fc);
        let f = char_frame(&b, Ijk::new(2, 2, 2), 0);
        assert!(f.lam[3] > f.lam[0]);
        assert!(f.lam[4] < f.lam[0]);
        assert!((f.lam[0] - (f.lam[3] + f.lam[4]) / 2.0).abs() < 1e-12);
        assert!((f.sigma - f.lam[3].abs().max(f.lam[4].abs())).abs() < 1e-12);
        // Orthonormal frame.
        let dot = |a: [f64; 3], b: [f64; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        assert!(dot(f.k, f.t1).abs() < 1e-12);
        assert!(dot(f.k, f.t2).abs() < 1e-12);
        assert!(dot(f.t1, f.t2).abs() < 1e-12);
        assert!((dot(f.t1, f.t1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rhs_gives_zero_update() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = uniform_block(7, &fc);
        let mut dq = StateField::new(b.local_dims);
        implicit_sweeps(&b, &fc, &mut dq, &mut SerialComm, &mut SweepScratch::default());
        for v in dq.as_slice() {
            assert!(v.abs() < 1e-15);
        }
    }

    #[test]
    fn sweeps_damp_but_preserve_sign() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = uniform_block(7, &fc);
        let mut dq = StateField::new(b.local_dims);
        let c = Ijk::new(3, 3, 3);
        dq.set_node(c, [1.0, 0.0, 0.0, 0.0, 0.0]);
        implicit_sweeps(&b, &fc, &mut dq, &mut SerialComm, &mut SweepScratch::default());
        let v = dq.node(c)[0];
        assert!(v > 0.0 && v < 1.0, "center update {v}");
    }

    #[test]
    fn blanked_rows_stay_zero() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut b = uniform_block(7, &fc);
        let hole = Ijk::new(3, 3, 3);
        b.iblank[hole] = Blank::Hole;
        let mut dq = StateField::new(b.local_dims);
        dq.set_node(hole, [5.0; 5]); // must be zeroed by the identity row
        dq.set_node(Ijk::new(4, 3, 3), [1.0, 0.0, 0.0, 0.0, 0.0]);
        implicit_sweeps(&b, &fc, &mut dq, &mut SerialComm, &mut SweepScratch::default());
        assert_eq!(*dq.node(hole), [0.0; 5]);
        assert!(dq.node(Ijk::new(4, 3, 3))[0] != 0.0);
    }

    #[test]
    fn implicit_neighbor_excludes_wrap_links() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let d = Dims::new(9, 5, 1);
        let coords = Field3::from_fn(d, |p| {
            let th = -2.0 * std::f64::consts::PI * (p.i % 8) as f64 / 8.0;
            let r = 1.0 + 0.1 * p.j as f64;
            [r * th.cos(), r * th.sin(), 0.0]
        });
        let mut g = CurvilinearGrid::new("o", coords, GridKind::NearBody);
        g.periodic_i = true;
        // Whole grid on one rank, wrap neighbors pointing at itself.
        let b =
            Block::from_grid(0, &g, d.full_box(), [Some(0), Some(0), None, None, None, None], &fc);
        assert!(implicit_neighbor(&b, 0, false).is_none());
        assert!(implicit_neighbor(&b, 0, true).is_none());
    }

    /// Annular 17×5 O-grid as one self-wrapping block, with a mildly
    /// non-uniform state so eigenvalues vary along the `i` lines.
    fn o_grid_block(fc: &FlowConditions) -> Block {
        let (nth, nr) = (17usize, 5);
        let d = Dims::new(nth, nr, 1);
        let coords = Field3::from_fn(d, |p| {
            let th = -2.0 * std::f64::consts::PI * (p.i % (nth - 1)) as f64 / (nth - 1) as f64;
            let r = 1.0 + 0.3 * p.j as f64;
            [r * th.cos(), r * th.sin(), 0.0]
        });
        let mut g = CurvilinearGrid::new("o", coords, GridKind::NearBody);
        g.periodic_i = true;
        let mut b = Block::from_grid(0, &g, d.full_box(), [None; 6], fc);
        for p in b.local_dims.iter().collect::<Vec<_>>() {
            let x = b.coords[p];
            let prim = [1.0 + 0.05 * x[0], 0.3 + 0.02 * x[1], 0.1 * x[0], 0.0, 0.8];
            b.q.set_node(p, crate::conditions::conservatives(&prim));
        }
        b.fill_self_wrap();
        b
    }

    /// Single-block communicator that tallies what the sweeps charge.
    struct CountingComm(u64);

    impl SolverComm for CountingComm {
        fn exchange_halo(&mut self, block: &mut Block) {
            SerialComm.exchange_halo(block);
        }
        fn send_line(&mut self, _: &Block, _: usize, _: bool, _: Vec<f64>) {
            unreachable!("single blocks have no line neighbors");
        }
        fn recv_line(&mut self, _: &Block, _: usize, _: bool, _: usize) -> Vec<f64> {
            unreachable!("single blocks have no line neighbors");
        }
        fn compute(&mut self, flops: u64) {
            self.0 += flops;
        }
    }

    #[test]
    fn sweeps_return_exactly_what_they_charge() {
        let fc = FlowConditions::new(0.8, 3.0, 0.0);
        for (name, b) in [("periodic O-grid", o_grid_block(&fc)), ("open", uniform_block(7, &fc))] {
            assert_eq!(periodic_in_i(&b), name == "periodic O-grid");
            let mut dq = StateField::new(b.local_dims);
            dq.set_node(Ijk::new(3, 2, 0), [1.0, 0.2, -0.1, 0.0, 0.5]);
            let mut comm = CountingComm(0);
            let returned =
                implicit_sweeps(&b, &fc, &mut dq, &mut comm, &mut SweepScratch::default());
            assert!(returned > 0, "{name}: no flops");
            assert_eq!(returned, comm.0, "{name}: returned flops differ from the charged ones");
        }
    }

    #[test]
    fn cyclic_solve_satisfies_periodic_system() {
        // Annular O-grid, single block: run the sweeps and verify that the
        // i-direction solve satisfies the full *cyclic* tridiagonal system
        // (seam coupling implicit).
        let mut fc = FlowConditions::new(0.5, 0.0, 0.0);
        fc.dt = 0.1;
        let b = o_grid_block(&fc);

        // RHS: pseudo-random but deterministic.
        let mut rhs = StateField::new(b.local_dims);
        let ow = b.owned_local();
        for p in ow.iter().collect::<Vec<_>>() {
            let g = b.to_global(p);
            let v = ((g.i * 37 + g.j * 17) % 19) as f64 / 19.0 - 0.5;
            rhs.set_node(p, [v, 0.5 * v, -v, 0.2, v * v]);
        }
        let mut dq = rhs.clone();

        // Run ONLY the i-direction sweep by constructing the same machinery:
        // easiest is to call implicit_sweeps on a j-degenerate... instead we
        // replicate: transform to char, call periodic_sweep_i, transform back
        // is internal to implicit_sweeps; here we call implicit_sweeps and
        // then verify only the i-sweep result cannot be isolated. So verify
        // the pure solve at the characteristic level directly.
        let n_own = ow.dims().ni;
        let np = n_own - 1; // unknowns per cyclic line
        let nlines = ow.dims().nj;
        let mut lines = Vec::new();
        for c2 in ow.lo.k..ow.hi.k {
            for c1 in ow.lo.j..ow.hi.j {
                lines.push((c1, c2));
            }
        }
        // Transform rhs to characteristic variables (as implicit_sweeps
        // does, via the lane-batched stage), and keep the scalar AoS frames
        // for the verification math below.
        let mut frames = Vec::new();
        for &(lj, lk) in lines.iter().take(nlines) {
            for c in 0..n_own {
                let p = Ijk::new(ow.lo.i + c, lj, lk);
                frames.push(char_frame(&b, p, 0));
            }
        }
        let mut ws = SweepScratch::default();
        let node_at = |li: usize, c: usize| Ijk::new(ow.lo.i + c, lines[li].0, lines[li].1);
        let halo_node = |li: usize, c: isize| {
            Ijk::new((ow.lo.i as isize + c).max(0) as usize, lines[li].0, lines[li].1)
        };
        let mpad = transform_to_char(
            &b,
            &mut dq,
            0,
            &node_at,
            &halo_node,
            n_own,
            nlines,
            ws.isa,
            &mut ws.gin,
            &mut ws.dw,
            &mut ws.fr,
            &mut ws.halo,
        );
        let rhs_char = dq.clone();
        periodic_sweep_i(&b, fc.dt, &mut dq, &mut SerialComm, &lines, n_own, mpad, ow, &mut ws);

        // Verify A x = rhs for each line and variable, with A the cyclic
        // tridiagonal built from the same row coefficients.
        for li in 0..nlines {
            let node = |c: usize| Ijk::new(ow.lo.i + c, lines[li].0, lines[li].1);
            let frame_at = |c: isize| -> CharFrame {
                if c < 0 {
                    char_frame(&b, Ijk::new(ow.lo.i - 1, lines[li].0, lines[li].1), 0)
                } else {
                    frames[li * n_own + c as usize]
                }
            };
            for v in 0..NVAR {
                for c in 0..np {
                    let fm = frame_at(c as isize - 1);
                    let f0 = frames[li * n_own + c];
                    let fp = frame_at(c as isize + 1);
                    let (a, bb, cc) = row_abc(&fm, &f0, &fp, fc.dt, v, false);
                    let xm = dq.node(node(if c == 0 { np - 1 } else { c - 1 }))[v];
                    let x0 = dq.node(node(c))[v];
                    let xp = dq.node(node(if c + 1 == np { 0 } else { c + 1 }))[v];
                    let lhs = a * xm + bb * x0 + cc * xp;
                    let r = rhs_char.node(node(c))[v];
                    assert!(
                        (lhs - r).abs() < 1e-9 * (1.0 + r.abs()),
                        "line {li} var {v} row {c}: {lhs} vs {r}"
                    );
                }
                // Seam duplicate mirrors node 0.
                let dup = dq.node(node(np))[v];
                let x0 = dq.node(node(0))[v];
                assert!((dup - x0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn simd_and_scalar_sweeps_bit_identical() {
        // The AVX2 and scalar lane paths must produce bit-identical updates
        // on both an open 3-D block and a periodic O-grid block.
        let fc = FlowConditions::new(0.8, 3.0, 0.0);
        let b = uniform_block(9, &fc);
        let run = |isa: Isa| -> Vec<u64> {
            let mut dq = StateField::new(b.local_dims);
            for p in b.owned_local().iter().collect::<Vec<_>>() {
                let v = ((p.i * 31 + p.j * 17 + p.k * 7) % 23) as f64 / 23.0 - 0.5;
                dq.set_node(p, [v, 0.3 * v, -v, v * v, 0.1 + v]);
            }
            let mut ws = SweepScratch::new(isa);
            implicit_sweeps(&b, &fc, &mut dq, &mut SerialComm, &mut ws);
            dq.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        let scalar = run(Isa::Scalar);
        let simd = run(select_isa(true));
        assert_eq!(scalar, simd);
    }

    #[test]
    fn larger_dt_damps_more() {
        let mut fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = uniform_block(7, &fc);
        let c = Ijk::new(3, 3, 3);
        let run = |fc: &FlowConditions| -> f64 {
            let mut dq = StateField::new(b.local_dims);
            dq.set_node(c, [1.0, 0.0, 0.0, 0.0, 0.0]);
            implicit_sweeps(&b, fc, &mut dq, &mut SerialComm, &mut SweepScratch::default());
            dq.node(c)[0]
        };
        fc.dt = 0.05;
        let small = run(&fc);
        fc.dt = 0.5;
        let large = run(&fc);
        assert!(large < small, "dt damping: {large} !< {small}");
    }
}
