/* Compiled hot path, called through ctypes by _sv_c.py. Four entries, the
 * first two sharing one statevector simulator:
 *
 *   expval_z_and_grad_rows  <Z^n>, and optionally its adjoint gradient, of
 *                           one circuit per row of an angle block; the
 *                           contract of _sv_numpy's row calls.
 *   play_episodes           a batch of CartPole episodes under the policy
 *                           circuit, on the threads the caller asks for
 *                           (one per core from _sv_c.py): the caller's and
 *                           helpers that outlive the call (see team), each
 *                           thread taking the next episode no thread has
 *                           taken.
 *                           Each step adds the noise to the normalized
 *                           state, draws the action uniform, runs the
 *                           circuit (plus the adjoint when training),
 *                           writes the grad log pi row and steps the
 *                           cart-pole.
 *   start_episodes          the stream and start state of each episode of a
 *                           batch, for play_episodes to play.
 *   init_params             a run's initial parameters, drawn from its init
 *                           stream as policy.init_params draws them.
 *
 * Same gates, conventions and packed gate arrays as _sv_numpy; qubit q is
 * bit q of the basis index. Both simulator entries first compile the gate
 * list into ops (struct sim): one per H or rotation, and one per run of
 * consecutive CZ gates, whose signs they compute once. The ops before the
 * first rotation (the template's H layer) are applied to |0...0> once, at
 * compile time, and every circuit starts from a copy of that state. One
 * function, gate(), applies every op in the forward pass, and undoes the H
 * and CZ runs in both sweeps of the adjoint, since they are their own
 * inverses. undo_rotation() undoes a rotation on both sweeps' states and
 * takes its gradient term in one pass over the amplitude pairs, and the
 * reverse sweep stops at the first rotation. The circuit's parameters come
 * from one vector theta, nu's entries then omega's, through the template's
 * one map, param and feature per gate (CircuitTemplate): rotation g takes
 * theta[param[g]] when feature[g] is -1, else theta[param[g]] *
 * obs[feature[g]], and each entry of theta drives one rotation.
 *
 * play_episodes reproduces, bit for bit, trainer.play_episodes running on
 * expval_z_and_grad_rows: each expression below is the Python one
 * (cartpole.normalize, CircuitTemplate.angles, probs_from_expectation,
 * log_policy_coeff, grad_to_params, step_batch) with its operations in the
 * same order, from the streams and starts of start_episodes, which are
 * those of seeding.substream and cartpole.reset. The draws are numpy's own
 * C distributions (libnpyrandom.a) on a bitgen_t over each episode's
 * Philox state: random_normal(bg, 0, sigma) four times, then next_double,
 * are Generator.normal(0, sigma, 4), then Generator.random(). What keeps
 * the bits:
 *
 *  - Real products. An amplitude is one 2-wide vector (re, im), and a real
 *    factor multiplies both lanes. Written as complex products, each real
 *    factor c would add terms 0 * x: (c, 0)(re, im) = (c re - 0 im,
 *    c im + 0 re). The amplitudes are finite, so those terms are zeros, and
 *    dropping them can only change the sign of an exact zero: x + (+-0) is
 *    x for nonzero x, and a zero's sign reaches only zero results of + and
 *    *. The sums that make the outputs, in expval_z and undo_rotation,
 *    start at +0.0 and so never end at -0.0. The real part of conj(l) d is
 *    summed as l.re d.re + l.im d.im, which is the complex product's
 *    d.re l.re - d.im (-l.im) exactly. A bit harness against the kernel
 *    built on complex products found no output bit moved, on random and
 *    template circuits of 1-6 qubits with angles of +-0, +-pi, +-1e-300
 *    and +-1e3, and on episode batches; the fixed-seed CSVs and
 *    checkpoints stayed the same bytes. An angle that is not finite makes
 *    NaN outputs either way, whose sign and payload bits may differ; config
 *    and checkpoint loading reject such values.
 *  - CZ runs. Each CZ negates the amplitudes whose index has both its bits
 *    set, and a run of them flips the sign bit of those with an odd count
 *    over the run: one XOR per amplitude, the same bits as each negation in
 *    turn. The run is diagonal and its own inverse, so the adjoint undoes
 *    it with the same pass.
 *  - Trig reuse. cos and sin of half of each rotation's angle are computed
 *    once per row (once per call for the variational angles, which no row
 *    changes) and reused by the forward pass and by undo_rotation, for both
 *    its undo and its gradient term. The undo is the rotation by -angle,
 *    applied as (c, -s): glibc's cos is even and its sin odd bit for bit,
 *    so these are the values that cos(-angle/2) and sin(-angle/2) would
 *    return.
 *  - One pass per rotation. For each amplitude pair, undo_rotation undoes
 *    the gate on psi, adds the pair's gradient terms from that psi and the
 *    lam before its undo, then undoes the gate on lam, with the expressions
 *    of ry and rz. A pair reads and writes only its own two amplitudes, and
 *    the sum runs over the pairs in index order, so the outputs are those
 *    of an undo pass on psi, a gradient pass and an undo pass on lam, bit
 *    for bit.
 *  - The start state. Applying the leading ops once and copying the result
 *    gives the same amplitudes as applying them to |0...0> per circuit,
 *    since they read no angle.
 *  - pow. gcc folds pow(x, 2.0) into x*x even without -ffast-math, but
 *    glibc's pow(x, 2.0), which numpy's float_power(x, 2) calls, differs
 *    from x*x in the last bit for about 1 in 1000 inputs. The exponent is
 *    read from a volatile, so the call stays a call.
 *  - Threads. An episode reads only its own start, noise std and stream,
 *    writes only its own length, stream and [t, i] gradient row, and runs
 *    on its thread's own scratch, so its operations are the same whichever
 *    thread plays it and whatever the others do. It draws from a private
 *    copy of its stream, written back when it ends, and no two threads'
 *    scratch share a cache line: that keeps cores from contending for
 *    lines, and changes no operation. The helper threads outlive the call:
 *    after a batch each spins for SPIN_NS, yielding its core at each turn,
 *    then parks until the next call wakes it. They block every signal, and
 *    every fork of the process joins them first (join_team, a pthread_atfork
 *    handler), so no child waits on helpers it lacks. Each call compiles
 *    every thread's scratch afresh, so no helper carries a value from one
 *    call into the next.
 *  - -ffp-contract=off keeps multiply-adds unfused; never -ffast-math or
 *    -march=native, which may change the last bits. gcc runs the 2-wide
 *    vectors on SSE2, which every x86-64 has, with no -march flag. */

#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#include "numpy/random/bitgen.h"

/* From numpy/random/distributions.h, which includes Python.h. */
double random_normal(bitgen_t *bitgen_state, double loc, double scale);

/* One amplitude, (re, im); arithmetic on it acts lane by lane, and a double
 * operand multiplies both lanes. */
typedef double amp __attribute__((vector_size(16)));
typedef int64_t amp_bits __attribute__((vector_size(16)));

enum { KIND_H = 0, KIND_RY = 1, KIND_RZ = 2, KIND_CZ = 3 };

static inline int is_rotation(int kind) {
    return kind == KIND_RY || kind == KIND_RZ;
}

/* a times x + iy: (x re - y im, x im + y re), each lane one product of
 * (x, x) and one of (-y, y) with (im, re). */
static inline amp times(amp a, double x, double y) {
    return a * x + __builtin_shuffle(a, (amp_bits){1, 0}) * (amp){-y, y};
}

/* (c, s) is (cos, sin) of half the rotation angle, in ry, rz and undo_rotation. */
static inline void ry(amp *a, ptrdiff_t dim, int q, double c, double s) {
    ptrdiff_t stride = ((ptrdiff_t)1) << q;
    ptrdiff_t group = stride << 1;
    for (ptrdiff_t base = 0; base < dim; base += group) {
        for (ptrdiff_t i = 0; i < stride; i++) {
            ptrdiff_t i0 = base + i, i1 = i0 + stride;
            amp a0 = a[i0], a1 = a[i1];
            a[i0] = c * a0 - s * a1;
            a[i1] = s * a0 + c * a1;
        }
    }
}

/* Bit q clear: times exp(-i angle/2) = c - is; set: times c + is. */
static inline void rz(amp *a, ptrdiff_t dim, int q, double c, double s) {
    ptrdiff_t stride = ((ptrdiff_t)1) << q;
    ptrdiff_t group = stride << 1;
    for (ptrdiff_t base = 0; base < dim; base += group) {
        for (ptrdiff_t i = 0; i < stride; i++) {
            ptrdiff_t i0 = base + i, i1 = i0 + stride;
            a[i0] = times(a[i0], c, -s);
            a[i1] = times(a[i1], c, s);
        }
    }
}

static inline void h(amp *a, ptrdiff_t dim, int q) {
    double inv = 1.0 / sqrt(2.0);
    ptrdiff_t stride = ((ptrdiff_t)1) << q;
    ptrdiff_t group = stride << 1;
    for (ptrdiff_t base = 0; base < dim; base += group) {
        for (ptrdiff_t i = 0; i < stride; i++) {
            ptrdiff_t i0 = base + i, i1 = i0 + stride;
            amp a0 = a[i0], a1 = a[i1];
            a[i0] = (a0 + a1) * inv;
            a[i1] = (a0 - a1) * inv;
        }
    }
}

/* A run of CZ gates: flips the sign bit of amplitude i's two lanes where
 * signs[i] has its sign bit set. */
static inline void flip(amp *a, ptrdiff_t dim, const int64_t *signs) {
    for (ptrdiff_t i = 0; i < dim; i++) {
        a[i] = (amp)((amp_bits)a[i] ^ signs[i]);
    }
}

static inline int parity(ptrdiff_t x) {
    return __builtin_parityll((unsigned long long)x);
}

/* Index of the first gate with an unknown kind, a qubit outside the
 * register or a CZ whose partner is its own target, or -1. Checked before
 * any gate is applied, so a bad gate list never indexes outside the
 * amplitude vector. */
static ptrdiff_t bad_gate(int n_qubits, const int8_t *kinds, const int32_t *qa, const int32_t *qb,
                          ptrdiff_t n_gates) {
    for (ptrdiff_t g = 0; g < n_gates; g++) {
        if (kinds[g] < KIND_H || kinds[g] > KIND_CZ || qa[g] < 0 || qa[g] >= n_qubits) {
            return g;
        }
        if (kinds[g] == KIND_CZ && (qb[g] < 0 || qb[g] >= n_qubits || qb[g] == qa[g])) {
            return g;
        }
    }
    return -1;
}

/* l.re d.re + l.im d.im: the real part of conj(l) d. */
static inline double re_dot(amp l, amp d) {
    amp p = d * l;
    return p[0] + p[1];
}

/* Undoes rotation op on psi and on lam in one pass over the amplitude pairs,
 * as the rotation by -angle, (c, -s). In between, each pair adds its terms
 * of 2 Re <lam| dU/dangle |psi>, psi being the state *before* the gate,
 * which the pass returns. The kind picks the loop, so no loop tests it. */
static inline double undo_rotation(amp *psi, amp *lam, ptrdiff_t dim, int kind, int q, double c, double s) {
    ptrdiff_t stride = ((ptrdiff_t)1) << q;
    ptrdiff_t group = stride << 1;
    double ns = -s, acc = 0.0;
    if (kind == KIND_RY) {
        for (ptrdiff_t base = 0; base < dim; base += group) {
            for (ptrdiff_t i = 0; i < stride; i++) {
                ptrdiff_t i0 = base + i, i1 = i0 + stride;
                amp a0 = psi[i0], a1 = psi[i1];
                amp p0 = c * a0 - ns * a1, p1 = ns * a0 + c * a1;
                psi[i0] = p0;
                psi[i1] = p1;
                amp d0 = 0.5 * (-s * p0 - c * p1);
                amp d1 = 0.5 * (c * p0 - s * p1);
                amp l0 = lam[i0], l1 = lam[i1];
                acc = acc + re_dot(l0, d0) + re_dot(l1, d1);
                lam[i0] = c * l0 - ns * l1;
                lam[i1] = ns * l0 + c * l1;
            }
        }
    } else {
        /* d0 = (-i/2) exp(-i angle/2) psi0 and d1 = (i/2) exp(i angle/2)
         * psi1: the factors are hs - i hc and hs + i hc. */
        double hs = -0.5 * s, hc = 0.5 * c;
        for (ptrdiff_t base = 0; base < dim; base += group) {
            for (ptrdiff_t i = 0; i < stride; i++) {
                ptrdiff_t i0 = base + i, i1 = i0 + stride;
                amp p0 = times(psi[i0], c, -ns), p1 = times(psi[i1], c, ns);
                psi[i0] = p0;
                psi[i1] = p1;
                amp d0 = times(p0, hs, -hc);
                amp d1 = times(p1, hs, hc);
                acc = acc + re_dot(lam[i0], d0) + re_dot(lam[i1], d1);
                lam[i0] = times(lam[i0], c, -ns);
                lam[i1] = times(lam[i1], c, ns);
            }
        }
    }
    return 2.0 * acc;
}

/* <Z tensor ... tensor Z>; exactly real by construction. */
static double expval_z(const amp *amps, ptrdiff_t dim) {
    double e = 0.0;
    for (ptrdiff_t i = 0; i < dim; i++) {
        amp sq = amps[i] * amps[i];
        double p = sq[0] + sq[1];
        if (parity(i)) {
            e -= p;
        } else {
            e += p;
        }
    }
    return e;
}

/* One step of a compiled gate list: an H or rotation on qubit q, which is
 * gate at of the list, or a run of CZ gates, whose signs start at
 * signs[at]. */
struct op {
    int kind, q;
    ptrdiff_t at;
};

/* A checked gate list compiled for one call, with its scratch: psi holds
 * 2 * dim amplitudes, start dim more, the state that the ops before the
 * first rotation, ops[first], make from |0...0> (all ops when there is no
 * rotation); cs[2g] and cs[2g + 1] the half-angle cosine and sine of
 * rotation g (unset for H and CZ), grads one gradient row for a caller with
 * no block of its own, and signs dim entries per CZ run, one per amplitude:
 * INT64_MIN to negate it, else 0. */
struct sim {
    ptrdiff_t dim, n_ops, n_rot, first;
    const struct op *ops;
    const int64_t *signs;
    amp *psi;
    const amp *start;
    double *cs, *grads;
};

/* One H, rotation or CZ run applied to a. H and a CZ run are their own
 * inverses, and neither reads cs. Forced inline: gcc keeps it out of line
 * otherwise, and the call per gate cost 3-5 % of the forward-only perfbench
 * campaigns. */
static inline __attribute__((always_inline)) void gate(amp *a, const struct sim *sim, struct op op) {
    if (op.kind == KIND_RY) {
        const double *cs = sim->cs + 2 * op.at;
        ry(a, sim->dim, op.q, cs[0], cs[1]);
    } else if (op.kind == KIND_RZ) {
        const double *cs = sim->cs + 2 * op.at;
        rz(a, sim->dim, op.q, cs[0], cs[1]);
    } else if (op.kind == KIND_H) {
        h(a, sim->dim, op.q);
    } else {
        flip(a, sim->dim, sim->signs + op.at);
    }
}

/* Compiles the gate list, which bad_gate has passed, into *sim, in one
 * allocation for free(sim->psi), and applies the ops before the first
 * rotation to |0...0> into sim->start. Returns -1, or -2 when the memory
 * cannot be allocated. */
static ptrdiff_t prepare(struct sim *sim, int n_qubits, const int8_t *kinds, const int32_t *qa,
                         const int32_t *qb, ptrdiff_t n_gates) {
    ptrdiff_t dim = ((ptrdiff_t)1) << n_qubits, n_rot = 0, n_runs = 0;
    for (ptrdiff_t g = 0; g < n_gates; g++) {
        n_rot += is_rotation(kinds[g]);
        n_runs += kinds[g] == KIND_CZ && (g == 0 || kinds[g - 1] != KIND_CZ);
    }
    /* The amplitudes first. The memory takes whole 64-byte cache lines, so
     * that the scratch of two threads of play_episodes never shares one. */
    size_t size = 3 * dim * sizeof(amp) + (2 * n_gates + n_rot) * sizeof(double) +
                  n_gates * sizeof(struct op) + n_runs * dim * sizeof(int64_t);
    char *mem = aligned_alloc(64, (size + 63) / 64 * 64);
    if (mem == NULL) {
        return -2;
    }
    sim->dim = dim;
    sim->n_rot = n_rot;
    sim->psi = (amp *)mem;
    amp *start = sim->psi + 2 * dim;
    sim->cs = (double *)(start + dim);
    sim->grads = sim->cs + 2 * n_gates;
    struct op *ops = (struct op *)(sim->grads + n_rot);
    int64_t *signs = (int64_t *)(ops + n_gates);
    memset(signs, 0, n_runs * dim * sizeof(int64_t));
    ptrdiff_t n_ops = 0, run = -dim, first = -1;
    for (ptrdiff_t g = 0; g < n_gates; g++) {
        if (first < 0 && is_rotation(kinds[g])) {
            first = n_ops;
        }
        if (kinds[g] != KIND_CZ) {
            ops[n_ops++] = (struct op){kinds[g], qa[g], g};
            continue;
        }
        if (g == 0 || kinds[g - 1] != KIND_CZ) {
            run += dim;
            ops[n_ops++] = (struct op){KIND_CZ, -1, run};
        }
        ptrdiff_t both = (((ptrdiff_t)1) << qa[g]) | (((ptrdiff_t)1) << qb[g]);
        for (ptrdiff_t i = 0; i < dim; i++) {
            signs[run + i] ^= (i & both) == both ? INT64_MIN : 0;
        }
    }
    sim->n_ops = n_ops;
    sim->first = first < 0 ? n_ops : first;
    sim->ops = ops;
    sim->signs = signs;
    memset(start, 0, dim * sizeof(amp)); /* all +0.0 */
    start[0] = (amp){1.0, 0.0};
    for (ptrdiff_t k = 0; k < sim->first; k++) {
        gate(start, sim, ops[k]);
    }
    sim->start = start;
    return -1;
}

/* Reverse sweep from the final state in sim->psi: d<Z^n>/d(angle) into
 * grads, one entry per rotation gate in gate order. The second half of the
 * scratch holds lam. The sweep stops at the first rotation, since nothing
 * reads psi or lam below it, and so leaves both as they stand there. */
static void adjoint(const struct sim *sim, double *grads) {
    amp *psi = sim->psi, *lam = psi + sim->dim;
    ptrdiff_t r = sim->n_rot - 1;
    for (ptrdiff_t i = 0; i < sim->dim; i++) {
        lam[i] = parity(i) ? -psi[i] : psi[i];
    }
    for (ptrdiff_t k = sim->n_ops - 1; k >= sim->first; k--) {
        struct op op = sim->ops[k];
        if (is_rotation(op.kind)) {
            grads[r--] = undo_rotation(psi, lam, sim->dim, op.kind, op.q, sim->cs[2 * op.at], sim->cs[2 * op.at + 1]);
        } else {
            gate(psi, sim, op);
            gate(lam, sim, op);
        }
    }
}

/* <Z^n> of |0...0> evolved through the compiled gates, whose rotations'
 * trig is in sim->cs: the ops from the first rotation on, applied to a copy
 * of sim->start; unless grads is NULL, also its adjoint gradient. Every
 * amplitude of psi is written before it is read, so no call sees what an
 * earlier one left there. */
static double circuit(const struct sim *sim, double *grads) {
    amp *psi = sim->psi;
    memcpy(psi, sim->start, sim->dim * sizeof(amp));
    for (ptrdiff_t k = sim->first; k < sim->n_ops; k++) {
        gate(psi, sim, sim->ops[k]);
    }
    double e = expval_z(psi, sim->dim);
    if (grads != NULL) {
        adjoint(sim, grads);
    }
    return e;
}

static inline void half_angle_trig(double *cs, double angle) {
    cs[0] = cos(0.5 * angle);
    cs[1] = sin(0.5 * angle);
}

/* One circuit per row of the (n_rows, n_gates) angles block, all sharing
 * the packed gate list: <Z^n> of |0...0> evolved through row r into
 * expvals[r] and, unless grads is NULL, its adjoint gradient into row r of
 * the (n_rows, rotations) grads block. Each row runs exactly as a circuit
 * alone would, so its results do not depend on the other rows. Returns -1;
 * or the index of the first bad gate, or -2 when the scratch cannot be
 * allocated (nothing computed then). */
ptrdiff_t expval_z_and_grad_rows(int n_qubits, const int8_t *kinds, const int32_t *qa,
                                 const int32_t *qb, const double *angles, ptrdiff_t n_gates,
                                 ptrdiff_t n_rows, double *grads, double *expvals) {
    ptrdiff_t bad = bad_gate(n_qubits, kinds, qa, qb, n_gates);
    if (bad >= 0) {
        return bad;
    }
    struct sim sim;
    if (prepare(&sim, n_qubits, kinds, qa, qb, n_gates) == -2) {
        return -2;
    }
    for (ptrdiff_t r = 0; r < n_rows; r++) {
        const double *row = angles + r * n_gates;
        for (ptrdiff_t g = 0; g < n_gates; g++) {
            if (is_rotation(kinds[g])) {
                half_angle_trig(sim.cs + 2 * g, row[g]);
            }
        }
        expvals[r] = circuit(&sim, grads == NULL ? NULL : grads + r * sim.n_rot);
    }
    free(sim.psi);
    return -1;
}

#define N_FEATURES 4

/* cartpole.py's constants, which _sv_c.py packs in this field order, so
 * that CartPole is defined in one place. */
struct cartpole {
    double gravity, pole_mass, total_mass, half_pole_length, pole_mass_length, force_mag, time_step,
        x_limit, theta_limit, norm_factors[N_FEATURES];
};

/* The exponent of theta_dot ** 2; volatile, so gcc cannot fold the pow. */
static volatile double SQUARE = 2.0;

static inline int out_of_bounds(const struct cartpole *cp, const double *s) {
    return fabs(s[0]) > cp->x_limit || fabs(s[2]) > cp->theta_limit;
}

/* cartpole.step_batch for one raw state s = (x, x_dot, theta, theta_dot):
 * one explicit-Euler step under the push (right: +force_mag) into next;
 * returns whether next is out of bounds. */
static int cartpole_step(const struct cartpole *cp, const double *s, int right, double square,
                         double *next) {
    double force = right ? cp->force_mag : -cp->force_mag;
    double ct = cos(s[2]), st = sin(s[2]);
    double temp = (force + cp->pole_mass_length * pow(s[3], square) * st) / cp->total_mass;
    double theta_acc = (cp->gravity * st - ct * temp) /
                       (cp->half_pole_length * (4.0 / 3.0 - cp->pole_mass * ct * ct / cp->total_mass));
    double x_acc = temp - cp->pole_mass_length * theta_acc * ct / cp->total_mass;
    next[0] = s[0] + cp->time_step * s[1];
    next[1] = s[1] + cp->time_step * x_acc;
    next[2] = s[2] + cp->time_step * s[3];
    next[3] = s[3] + cp->time_step * theta_acc;
    return out_of_bounds(cp, next);
}

/* numpy's SeedSequence with its default pool of 4 words (bit_generator.pyx),
 * fed its entropy one 32-bit word at a time: the first 4 words, zeros past
 * the end of a shorter entropy, fill the pool, which then mixes with
 * itself, and each later word mixes into every pool word. hash is the
 * running hash constant. */
struct seed_seq {
    uint32_t pool[4], hash;
    int n;
};

static uint32_t hashmix(struct seed_seq *ss, uint32_t value) {
    value ^= ss->hash;
    ss->hash *= 0x931e8875u;
    value *= ss->hash;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y) {
    uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ (r >> 16);
}

static void absorb(struct seed_seq *ss, uint32_t word) {
    if (ss->n < 4) {
        ss->pool[ss->n] = hashmix(ss, word);
    } else {
        for (int d = 0; d < 4; d++) {
            ss->pool[d] = mix(ss->pool[d], hashmix(ss, word));
        }
    }
    if (++ss->n == 4) {
        for (int s = 0; s < 4; s++) {
            for (int d = 0; d < 4; d++) {
                if (s != d) {
                    ss->pool[d] = mix(ss->pool[d], hashmix(ss, ss->pool[s]));
                }
            }
        }
    }
}

/* An episode's stream: numpy's philox_state (philox.h), as one row of the
 * (B, 11) uint64 block of _sv_c.py. Nothing here draws 32 bits at a time,
 * so the state's half-used 32-bit draw is always empty and left out. */
struct philox {
    uint64_t ctr[4], key[2], buffer[4], buffer_pos;
};

/* The state of Philox(ss): its key is ss.generate_state(2, uint64), its
 * counter and buffer are zero, and the buffer is used up. */
static struct philox philox_seeded(struct seed_seq ss) {
    while (ss.n < 4) {
        absorb(&ss, 0);
    }
    uint32_t hash = 0x8b51f9ddu, w[4];
    for (int i = 0; i < 4; i++) {
        uint32_t v = ss.pool[i] ^ hash;
        hash *= 0x58f38dedu;
        v *= hash;
        w[i] = v ^ (v >> 16);
    }
    return (struct philox){.key = {w[0] | (uint64_t)w[1] << 32, w[2] | (uint64_t)w[3] << 32}, .buffer_pos = 4};
}

static inline uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi) {
    __uint128_t p = (__uint128_t)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
}

/* numpy's philox_next: the next 64-bit output, from the buffer or, once it
 * is used up, from Philox4x64-10 of the incremented counter. */
static uint64_t philox_next(void *state) {
    struct philox *st = state;
    if (st->buffer_pos < 4) {
        return st->buffer[st->buffer_pos++];
    }
    for (int i = 0; i < 4 && ++st->ctr[i] == 0; i++) {
    }
    uint64_t c[4], k0 = st->key[0], k1 = st->key[1];
    memcpy(c, st->ctr, sizeof c);
    for (int round = 0; round < 10; round++) {
        if (round > 0) {
            k0 += 0x9E3779B97F4A7C15ull;
            k1 += 0xBB67AE8584CAA73Bull;
        }
        uint64_t hi0, hi1;
        uint64_t lo0 = mulhilo(0xD2E7470EE14C6C93ull, c[0], &hi0);
        uint64_t lo1 = mulhilo(0xCA5A826395121157ull, c[2], &hi1);
        uint64_t next[4] = {hi1 ^ c[1] ^ k0, lo1, hi0 ^ c[3] ^ k1, lo0};
        memcpy(c, next, sizeof c);
    }
    memcpy(st->buffer, c, sizeof c);
    st->buffer_pos = 1;
    return c[0];
}

static double philox_double(void *state) {
    return (philox_next(state) >> 11) * (1.0 / 9007199254740992.0);
}

/* A bit generator over st, for numpy's C distributions. */
static bitgen_t bitgen(struct philox *st) {
    return (bitgen_t){.state = st, .next_uint64 = philox_next, .next_double = philox_double, .next_raw = philox_next};
}

/* The policy circuit, compiled, with gate g's entry of theta and the
 * feature it reads (-1: a variational angle). */
struct policy {
    struct sim sim;
    ptrdiff_t n_gates;
    const int8_t *kinds;
    const int32_t *param, *feature;
    const double *theta;
};

/* One step in raw state s (see trainer.play_episodes): the observation,
 * plus 4 draws of N(0, sigma) from bg when sigma > 0, the action uniform u
 * drawn next, then <Z^n>, the variational angles' trig already in
 * pol->sim.cs. Returns the action: right unless u < p0. Unless grads is
 * NULL, the adjoint runs too and coeff * d<Z^n>/d(theta) goes to the row
 * glp. */
static int policy_step(const struct policy *pol, const struct cartpole *cp, double *grads, const double *s,
                       double sigma, bitgen_t *bg, double *glp) {
    double obs[N_FEATURES];
    for (int k = 0; k < N_FEATURES; k++) {
        obs[k] = s[k] / cp->norm_factors[k];
    }
    for (int k = 0; sigma > 0 && k < N_FEATURES; k++) {
        obs[k] = obs[k] + random_normal(bg, 0.0, sigma);
    }
    double u = bg->next_double(bg->state);
    for (ptrdiff_t g = 0; g < pol->n_gates; g++) {
        if (is_rotation(pol->kinds[g]) && pol->feature[g] >= 0) {
            half_angle_trig(pol->sim.cs + 2 * g, pol->theta[pol->param[g]] * obs[pol->feature[g]]);
        }
    }
    double e = circuit(&pol->sim, grads);
    e = e < -1.0 ? -1.0 : e; /* np.maximum, then np.minimum: NaN stays NaN */
    e = e > 1.0 ? 1.0 : e;
    double p = (e + 1.0) / 2.0;
    int right = !(u < p);
    if (grads != NULL) {
        double pa = right ? 1.0 - p : p;
        pa = pa < 1e-12 ? 1e-12 : pa;
        double coeff = (right ? -1.0 : 1.0) / (2.0 * pa);
        for (ptrdiff_t g = 0, k = 0; g < pol->n_gates; g++) {
            if (is_rotation(pol->kinds[g])) {
                double d = grads[k++];
                glp[pol->param[g]] = coeff * (pol->feature[g] < 0 ? d : d * obs[pol->feature[g]]);
            }
        }
    }
    return right;
}

/* A batch of episodes, shared by the threads that play it: the arguments
 * of play_episodes, and next, the index of the first episode no thread has
 * taken yet. */
struct batch {
    const struct cartpole *cp;
    const double *starts, *sigmas;
    struct philox *streams;
    ptrdiff_t n_episodes, n_params, horizon;
    double *glp;
    int64_t *lengths;
    double square;
    atomic_ptrdiff_t next;
};

/* One thread's part in a batch: its own compiled policy, whose scratch no
 * other thread touches. */
struct player {
    struct batch *batch;
    struct policy pol;
};

/* Takes the batch's next episode until none is left, and plays each: from
 * its start until it goes out of bounds or reaches the horizon, drawing
 * from its stream under its noise std; see play_episodes. The calling
 * thread's share, and each helper's. Each episode draws from a private
 * copy of its stream row, written back when it ends: the rows are 88 bytes
 * long, so neighbouring episodes, which other threads may play, share
 * cache lines. */
static void play(struct player *pl) {
    struct batch *b = pl->batch;
    double *grads = b->glp == NULL ? NULL : pl->pol.sim.grads;
    for (ptrdiff_t i; (i = atomic_fetch_add_explicit(&b->next, 1, memory_order_relaxed)) < b->n_episodes;) {
        double s[2][N_FEATURES];
        memcpy(s[0], b->starts + N_FEATURES * i, sizeof s[0]);
        struct philox stream = b->streams[i];
        bitgen_t bg = bitgen(&stream);
        ptrdiff_t t = 0;
        for (int out = out_of_bounds(b->cp, s[0]); !out && t < b->horizon; t++) {
            ptrdiff_t row = (t * b->n_episodes + i) * b->n_params;
            int right = policy_step(&pl->pol, b->cp, grads, s[t % 2], b->sigmas[i], &bg,
                                    grads == NULL ? NULL : b->glp + row);
            out = cartpole_step(b->cp, s[t % 2], right, b->square, s[(t + 1) % 2]);
        }
        b->lengths[i] = t;
        b->streams[i] = stream;
    }
}

/* The most threads one call plays on. */
#define MAX_THREADS 64

/* How long a helper spins for the next batch before it parks. The longest
 * gap between consecutive play_episodes calls of curriculum --seed 4
 * --seeds 1 was 1.24 ms (491 calls, median 0.24 ms), so the calls of one
 * run find their helpers awake, and a process that stops calling holds no
 * core for longer than this. */
#define SPIN_NS 2000000

/* The process's helper threads of play_episodes, which outlive the call.
 * word counts the batches published, times MAX_THREADS, plus the number of
 * helpers that play the latest one; helper k plays it when k is below that
 * number, on players[k + 1], and then adds one to done. A helper created
 * for a call starts from first[k], the word before that call's batch, so it
 * cannot miss the batch it was created for. call is held by the one call
 * that uses the team, since ctypes releases the GIL, and across a fork;
 * lock and wake park the helpers that have spun for SPIN_NS. */
static struct {
    pthread_mutex_t call, lock;
    pthread_cond_t wake;
    _Atomic uint64_t word;
    atomic_ptrdiff_t done;
    atomic_int stop;
    struct player *players;
    ptrdiff_t n_helpers;
    uint64_t first[MAX_THREADS - 1];
    pthread_t ids[MAX_THREADS - 1];
} team = {.call = PTHREAD_MUTEX_INITIALIZER, .lock = PTHREAD_MUTEX_INITIALIZER, .wake = PTHREAD_COND_INITIALIZER};

static int64_t now_ns(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

/* The first word other than seen: spun for up to SPIN_NS, then waited for
 * on wake. The spin yields the core at each turn, so that the threads of
 * another process, such as those of a --workers pool, take it when they
 * want it. */
static uint64_t next_word(uint64_t seen) {
    int64_t until = now_ns() + SPIN_NS;
    uint64_t word;
    while ((word = atomic_load_explicit(&team.word, memory_order_acquire)) == seen && now_ns() < until) {
        sched_yield();
    }
    if (word == seen) {
        pthread_mutex_lock(&team.lock);
        while ((word = atomic_load_explicit(&team.word, memory_order_acquire)) == seen) {
            pthread_cond_wait(&team.wake, &team.lock);
        }
        pthread_mutex_unlock(&team.lock);
    }
    return word;
}

/* Helper k: plays its part of every batch that asks for it, until
 * join_team. */
static void *helper(void *arg) {
    ptrdiff_t k = (ptrdiff_t)(intptr_t)arg;
    for (uint64_t word = team.first[k];;) {
        word = next_word(word);
        if (atomic_load_explicit(&team.stop, memory_order_relaxed)) {
            return NULL;
        }
        if (k < (ptrdiff_t)(word % MAX_THREADS)) {
            play(team.players + k + 1);
            atomic_fetch_add_explicit(&team.done, 1, memory_order_release);
        }
    }
}

/* With team.call held: publishes the next batch, played by helpers
 * helpers (none: the stop), and wakes any parked helper. */
static void publish(ptrdiff_t helpers) {
    uint64_t word = (atomic_load_explicit(&team.word, memory_order_relaxed) / MAX_THREADS + 1) * MAX_THREADS;
    pthread_mutex_lock(&team.lock);
    atomic_store_explicit(&team.word, word + helpers, memory_order_release);
    pthread_cond_broadcast(&team.wake);
    pthread_mutex_unlock(&team.lock);
}

/* With team.call held: starts helpers, blocking every signal in them, until
 * there are wanted; returns how many of the wanted there are, fewer when
 * one cannot be started. */
static ptrdiff_t grow_team(ptrdiff_t wanted) {
    if (team.n_helpers < wanted) {
        sigset_t all, caller;
        sigfillset(&all);
        pthread_sigmask(SIG_SETMASK, &all, &caller); /* the helpers inherit it */
        while (team.n_helpers < wanted) {
            ptrdiff_t k = team.n_helpers;
            team.first[k] = atomic_load_explicit(&team.word, memory_order_relaxed);
            if (pthread_create(team.ids + k, NULL, helper, (void *)(intptr_t)k) != 0) {
                break;
            }
            team.n_helpers++;
        }
        pthread_sigmask(SIG_SETMASK, &caller, NULL);
    }
    return team.n_helpers < wanted ? team.n_helpers : wanted;
}

/* The prepare handler of every fork: stops and joins every helper of
 * play_episodes, whose threads a child would lack, and holds team.call
 * until release_team, so that no call grows the team again before the
 * fork; the next call after it starts them again. */
static void join_team(void) {
    pthread_mutex_lock(&team.call);
    if (team.n_helpers > 0) {
        atomic_store_explicit(&team.stop, 1, memory_order_relaxed);
        publish(0);
        for (ptrdiff_t k = 0; k < team.n_helpers; k++) {
            pthread_join(team.ids[k], NULL);
        }
        team.n_helpers = 0;
        atomic_store_explicit(&team.stop, 0, memory_order_relaxed);
    }
}

/* The parent and child handlers of every fork. */
static void release_team(void) {
    pthread_mutex_unlock(&team.call);
}

/* Whether the fork handlers are registered; without them play_episodes
 * plays on the calling thread alone, as a team could strand a forked
 * child. */
static int forkable;

__attribute__((constructor)) static void register_fork_handlers(void) {
    forkable = pthread_atfork(join_team, release_team, release_team) == 0;
}

/* Plays episode i of n_episodes from raw state starts[4i..4i+3], drawing
 * from streams[i] under noise std sigmas[i], until it goes out of bounds
 * or reaches the horizon, and puts its step count, 0 for a start out of
 * bounds, in lengths[i], and leaves streams[i] where its draws end; param
 * and feature map the n_params entries of theta onto the rotations (see the
 * top of this file). Unless glp is NULL, step t of episode i writes its
 * grad log pi to [t, i] of the (horizon, n_episodes, n_params) block glp.
 *
 * The episodes are played on threads threads, clamped to [1, min(n_episodes,
 * MAX_THREADS)], or on one when the fork handlers could not be registered:
 * the calling one and helpers of the team, each taking the next episode no
 * thread has taken. An episode reads and writes only its own start,
 * stream, length and gradient rows, and each thread has its own scratch,
 * so no result depends on the thread count or on which thread played
 * which episode. The call returns once every helper has finished its part;
 * the helpers then wait for the next call (see team). A helper that cannot
 * be started leaves its episodes to the others.
 *
 * Returns -1; or the index of the first bad gate, parameter or feature,
 * or -2 when the scratch cannot be allocated (nothing computed then). */
ptrdiff_t play_episodes(int n_qubits, const int8_t *kinds, const int32_t *qa, const int32_t *qb,
                        const int32_t *param, const int32_t *feature, ptrdiff_t n_gates,
                        const double *theta, ptrdiff_t n_params, ptrdiff_t n_episodes,
                        const double *starts, const double *sigmas, struct philox *streams,
                        ptrdiff_t horizon, double *glp, const struct cartpole *cp, int64_t *lengths,
                        int threads) {
    ptrdiff_t bad = bad_gate(n_qubits, kinds, qa, qb, n_gates);
    if (bad >= 0) {
        return bad;
    }
    for (ptrdiff_t g = 0; g < n_gates; g++) {
        if (is_rotation(kinds[g]) && (param[g] < 0 || param[g] >= n_params ||
                                      feature[g] < -1 || feature[g] >= N_FEATURES)) {
            return g;
        }
    }
    ptrdiff_t n_threads = threads < MAX_THREADS ? threads : MAX_THREADS;
    n_threads = n_threads < n_episodes ? n_threads : n_episodes;
    n_threads = n_threads > 1 && forkable ? n_threads : 1;
    struct batch batch = {.cp = cp, .starts = starts, .sigmas = sigmas, .streams = streams,
                          .n_episodes = n_episodes, .n_params = n_params, .horizon = horizon,
                          .glp = glp, .lengths = lengths, .square = SQUARE};
    atomic_init(&batch.next, 0);
    struct player players[MAX_THREADS];
    for (ptrdiff_t k = 0; k < n_threads; k++) {
        players[k] = (struct player){.batch = &batch, .pol = {.n_gates = n_gates, .kinds = kinds,
                                     .param = param, .feature = feature, .theta = theta}};
        if (prepare(&players[k].pol.sim, n_qubits, kinds, qa, qb, n_gates) == -2) {
            while (k-- > 0) {
                free(players[k].pol.sim.psi);
            }
            return -2;
        }
        for (ptrdiff_t g = 0; g < n_gates; g++) {
            if (is_rotation(kinds[g]) && feature[g] < 0) {
                half_angle_trig(players[k].pol.sim.cs + 2 * g, theta[param[g]]);
            }
        }
    }
    pthread_mutex_lock(&team.call);
    ptrdiff_t helpers = grow_team(n_threads - 1);
    if (helpers > 0) {
        team.players = players;
        atomic_store_explicit(&team.done, 0, memory_order_relaxed);
        publish(helpers);
    }
    play(players);
    while (atomic_load_explicit(&team.done, memory_order_acquire) < helpers) {
        sched_yield();
    }
    pthread_mutex_unlock(&team.call);
    for (ptrdiff_t k = 0; k < n_threads; k++) {
        free(players[k].pol.sim.psi);
    }
    return -1;
}

/* The seed sequence that has absorbed the n_head entropy words of head:
 * the seed's and the path prefix's, from seeding.Streams.head. */
static struct seed_seq seeded(const uint32_t *head, ptrdiff_t n_head) {
    struct seed_seq ss = {.hash = 0x43b0d7e5u};
    for (ptrdiff_t k = 0; k < n_head; k++) {
        absorb(&ss, head[k]);
    }
    return ss;
}

/* Generator.uniform(lo, hi): lo + (hi - lo) * next_double. */
static double uniform(struct philox *st, double lo, double hi) {
    return lo + (hi - lo) * philox_double(st);
}

/* The streams and starts of n_episodes episodes. Episode i's stream is the
 * state of Generator(Philox(SeedSequence(entropy=seed, spawn_key=path)))
 * (seeding.substream), whose entropy is the n_head words of head and then
 * those of its n_suffix trailing path components suffixes[n_suffix i..]:
 * one word for a component below 2**32, else its low and high words. Its
 * start then draws x, x_dot, theta and theta_dot in that order as
 * Generator.uniform(lo, hi) does (cartpole.reset), with (lo, hi) from
 * bounds[8i..8i+7]. */
void start_episodes(const uint32_t *head, ptrdiff_t n_head, const uint64_t *suffixes, ptrdiff_t n_suffix,
                    ptrdiff_t n_episodes, const double *bounds, struct philox *streams, double *starts) {
    struct seed_seq base = seeded(head, n_head);
    for (ptrdiff_t i = 0; i < n_episodes; i++) {
        struct seed_seq ss = base;
        for (ptrdiff_t k = 0; k < n_suffix; k++) {
            uint64_t c = suffixes[i * n_suffix + k];
            absorb(&ss, (uint32_t)c);
            if (c >> 32) {
                absorb(&ss, (uint32_t)(c >> 32));
            }
        }
        streams[i] = philox_seeded(ss);
        for (int f = 0; f < N_FEATURES; f++) {
            const double *b = bounds + 2 * (N_FEATURES * i + f);
            starts[N_FEATURES * i + f] = uniform(streams + i, b[0], b[1]);
        }
    }
}

/* policy.init_params on the stream whose entropy is the n_head words of
 * head (seeding.substream(seed, STREAM_INIT)), into the 2 n_params entries
 * of theta: first the n_params of nu, each Generator.uniform(lo, hi), then
 * those of omega, each random_normal(0, std) as Generator.normal(0, std)
 * draws it. */
void init_params(const uint32_t *head, ptrdiff_t n_head, ptrdiff_t n_params, double lo, double hi, double std,
                 double *theta) {
    struct philox st = philox_seeded(seeded(head, n_head));
    bitgen_t bg = bitgen(&st);
    for (ptrdiff_t i = 0; i < n_params; i++) {
        theta[i] = uniform(&st, lo, hi);
    }
    for (ptrdiff_t i = n_params; i < 2 * n_params; i++) {
        theta[i] = random_normal(&bg, 0.0, std);
    }
}
