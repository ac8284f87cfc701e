/* Compiled hot path, called through ctypes by _sv_c.py. Two entries share
 * one statevector simulator:
 *
 *   expval_z_and_grad_rows  <Z^n>, and optionally its adjoint gradient, of
 *                           one circuit per row of an angle block; the
 *                           contract of _sv_numpy's row calls.
 *   play_episodes           a batch of CartPole episodes under the policy
 *                           circuit, one after another. Each step adds the
 *                           noise to the normalized state, draws the action
 *                           uniform, runs the circuit (plus the adjoint when
 *                           training), writes the grad log pi row and steps
 *                           the cart-pole.
 *
 * Same gates, conventions and packed gate arrays as _sv_numpy; qubit q is
 * bit q of the basis index. play_episodes reproduces, bit for bit,
 * trainer.play_episodes running on expval_z_and_grad_rows: each expression
 * below is the Python one (cartpole.normalize, CircuitTemplate.angles,
 * probs_from_expectation, log_policy_coeff, grad_to_params, step_batch)
 * with its operations in the same order, and a real factor c enters a
 * complex product as cplx_of(c, 0), a full complex product. The draws are
 * numpy's own C distributions (libnpyrandom.a) on the bitgen_t of each
 * episode's Generator: random_normal(bg, 0, sigma) four times, then
 * next_double, are Generator.normal(0, sigma, 4), then Generator.random().
 * What keeps the bits:
 *
 *  - Trig reuse. cos and sin of half of each rotation's angle are computed
 *    once per row (once per call for the nu angles, which no row changes)
 *    and reused by the forward pass, the adjoint's undo and grad_dot. The
 *    undo is the rotation by -angle, applied as (c, -s): glibc's cos is
 *    even and its sin odd bit for bit, so these are the values that
 *    cos(-angle/2) and sin(-angle/2) would return.
 *  - -fcx-limited-range. Without it gcc calls __muldc3 for each complex
 *    product, which computes the plain four-multiply formula and, only when
 *    both parts come out NaN, redoes the product by C99 Annex G rules.
 *    Angles, states and amplitudes are finite here, so the plain formula,
 *    all the flag leaves, gives the same bits.
 *  - pow. gcc folds pow(x, 2.0) into x*x even without -ffast-math, but
 *    glibc's pow(x, 2.0), which numpy's float_power(x, 2) calls, differs
 *    from x*x in the last bit for about 1 in 1000 inputs. The exponent is
 *    read from a volatile, so the call stays a call.
 *  - -ffp-contract=off keeps multiply-adds unfused; never -ffast-math or
 *    -march=native, which may change the last bits. */

#include <complex.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* From numpy/random/distributions.h, which includes Python.h. */
double random_normal(bitgen_t *bitgen_state, double loc, double scale);

typedef double complex cplx;

enum { KIND_H = 0, KIND_RY = 1, KIND_RZ = 2, KIND_CZ = 3 };

static inline cplx cplx_of(double x, double y) {
    return x + y * (cplx)_Complex_I;
}

static inline int is_rotation(int kind) {
    return kind == KIND_RY || kind == KIND_RZ;
}

/* (c, s) is (cos, sin) of half the rotation angle, in ry, rz and grad_dot. */
static inline void ry(cplx *a, ptrdiff_t dim, int q, double c, double s) {
    ptrdiff_t stride = ((ptrdiff_t)1) << q;
    ptrdiff_t group = stride << 1;
    for (ptrdiff_t base = 0; base < dim; base += group) {
        for (ptrdiff_t i = 0; i < stride; i++) {
            ptrdiff_t i0 = base + i, i1 = i0 + stride;
            cplx a0 = a[i0], a1 = a[i1];
            a[i0] = cplx_of(c, 0) * a0 - cplx_of(s, 0) * a1;
            a[i1] = cplx_of(s, 0) * a0 + cplx_of(c, 0) * a1;
        }
    }
}

static inline void rz(cplx *a, ptrdiff_t dim, int q, double c, double s) {
    cplx p0 = cplx_of(c, 0) - cplx_of(0, 1.0) * cplx_of(s, 0); /* exp(-i angle/2) */
    cplx p1 = cplx_of(c, 0) + cplx_of(0, 1.0) * cplx_of(s, 0);
    ptrdiff_t stride = ((ptrdiff_t)1) << q;
    ptrdiff_t group = stride << 1;
    for (ptrdiff_t base = 0; base < dim; base += group) {
        for (ptrdiff_t i = 0; i < stride; i++) {
            ptrdiff_t i0 = base + i;
            a[i0] = a[i0] * p0;
            a[i0 + stride] = a[i0 + stride] * p1;
        }
    }
}

static inline void h(cplx *a, ptrdiff_t dim, int q) {
    double inv = 1.0 / sqrt(2.0);
    ptrdiff_t stride = ((ptrdiff_t)1) << q;
    ptrdiff_t group = stride << 1;
    for (ptrdiff_t base = 0; base < dim; base += group) {
        for (ptrdiff_t i = 0; i < stride; i++) {
            ptrdiff_t i0 = base + i, i1 = i0 + stride;
            cplx a0 = a[i0], a1 = a[i1];
            a[i0] = (a0 + a1) * cplx_of(inv, 0);
            a[i1] = (a0 - a1) * cplx_of(inv, 0);
        }
    }
}

static inline void cz(cplx *a, ptrdiff_t dim, int qa, int qb) {
    ptrdiff_t both = (((ptrdiff_t)1) << qa) | (((ptrdiff_t)1) << qb);
    for (ptrdiff_t i = 0; i < dim; i++) {
        if ((i & both) == both) {
            a[i] = -a[i];
        }
    }
}

static inline int parity(ptrdiff_t x) {
    x ^= x >> 32;
    x ^= x >> 16;
    x ^= x >> 8;
    x ^= x >> 4;
    x ^= x >> 2;
    x ^= x >> 1;
    return (int)(x & 1);
}

/* Index of the first gate with an unknown kind, a qubit outside the
 * register or a CZ whose partner is its own target, or -1. Checked before
 * any gate is applied, so a bad gate list never indexes outside the
 * amplitude vector. */
static ptrdiff_t bad_gate(int n_qubits, const int8_t *kinds, const int32_t *qa,
                          const int32_t *qb, ptrdiff_t n_gates) {
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

static ptrdiff_t count_rotations(const int8_t *kinds, ptrdiff_t n_gates) {
    ptrdiff_t n_rot = 0;
    for (ptrdiff_t g = 0; g < n_gates; g++) {
        n_rot += is_rotation(kinds[g]);
    }
    return n_rot;
}

/* 2 Re <lam| dU/dangle |psi>, psi being the state *before* the gate. */
static inline double grad_dot(const cplx *lam, const cplx *psi, ptrdiff_t dim, int kind,
                              int q, double c, double s) {
    cplx p0 = cplx_of(c, 0) - cplx_of(0, 1.0) * cplx_of(s, 0);
    cplx p1 = cplx_of(c, 0) + cplx_of(0, 1.0) * cplx_of(s, 0);
    ptrdiff_t stride = ((ptrdiff_t)1) << q;
    ptrdiff_t group = stride << 1;
    cplx acc = cplx_of(0, 0);
    cplx d0, d1;
    for (ptrdiff_t base = 0; base < dim; base += group) {
        for (ptrdiff_t i = 0; i < stride; i++) {
            ptrdiff_t i0 = base + i, i1 = i0 + stride;
            if (kind == KIND_RY) {
                d0 = cplx_of(0.5, 0) * (cplx_of(-s, 0) * psi[i0] - cplx_of(c, 0) * psi[i1]);
                d1 = cplx_of(0.5, 0) * (cplx_of(c, 0) * psi[i0] - cplx_of(s, 0) * psi[i1]);
            } else {
                d0 = -cplx_of(0, 0.5) * p0 * psi[i0];
                d1 = cplx_of(0, 0.5) * p1 * psi[i1];
            }
            acc = acc + d0 * conj(lam[i0]) + d1 * conj(lam[i1]);
        }
    }
    return 2.0 * creal(acc);
}

/* <Z tensor ... tensor Z>; exactly real by construction. */
static double expval_z(const cplx *amps, ptrdiff_t dim) {
    double e = 0.0;
    for (ptrdiff_t i = 0; i < dim; i++) {
        double p = creal(amps[i]) * creal(amps[i]) + cimag(amps[i]) * cimag(amps[i]);
        if (parity(i)) {
            e -= p;
        } else {
            e += p;
        }
    }
    return e;
}

/* Reverse sweep from the final state psi, which it turns back into
 * |0...0>: d<Z^n>/d(angle) into grads, one entry per rotation gate in gate
 * order (n_rot of them). lam is scratch. */
static void adjoint(cplx *psi, cplx *lam, ptrdiff_t dim, const int8_t *kinds,
                    const int32_t *qa, const int32_t *qb, const double *cs,
                    ptrdiff_t n_gates, ptrdiff_t n_rot, double *grads) {
    ptrdiff_t r = n_rot - 1;
    for (ptrdiff_t i = 0; i < dim; i++) {
        lam[i] = parity(i) ? -psi[i] : psi[i];
    }
    for (ptrdiff_t g = n_gates - 1; g > -1; g--) {
        int kind = kinds[g];
        double c = cs[2 * g], s = cs[2 * g + 1];
        if (kind == KIND_RY) {
            ry(psi, dim, qa[g], c, -s);
            grads[r] = grad_dot(lam, psi, dim, kind, qa[g], c, s);
            r -= 1;
            ry(lam, dim, qa[g], c, -s);
        } else if (kind == KIND_RZ) {
            rz(psi, dim, qa[g], c, -s);
            grads[r] = grad_dot(lam, psi, dim, kind, qa[g], c, s);
            r -= 1;
            rz(lam, dim, qa[g], c, -s);
        } else if (kind == KIND_H) {
            h(psi, dim, qa[g]);
            h(lam, dim, qa[g]);
        } else {
            cz(psi, dim, qa[g], qb[g]);
            cz(lam, dim, qa[g], qb[g]);
        }
    }
}

/* <Z^n> of |0...0> evolved through the gates, cs[2g], cs[2g + 1] holding
 * rotation g's half-angle cosine and sine; unless grads is NULL, also its
 * adjoint gradient. psi holds 2 * dim amplitudes of scratch. */
static double circuit(cplx *psi, ptrdiff_t dim, const int8_t *kinds, const int32_t *qa,
                      const int32_t *qb, const double *cs, ptrdiff_t n_gates, ptrdiff_t n_rot,
                      double *grads) {
    memset(psi, 0, dim * sizeof(cplx)); /* all +0.0 */
    psi[0] = 1.0;
    for (ptrdiff_t g = 0; g < n_gates; g++) {
        int kind = kinds[g];
        if (kind == KIND_RY) {
            ry(psi, dim, qa[g], cs[2 * g], cs[2 * g + 1]);
        } else if (kind == KIND_RZ) {
            rz(psi, dim, qa[g], cs[2 * g], cs[2 * g + 1]);
        } else if (kind == KIND_H) {
            h(psi, dim, qa[g]);
        } else {
            cz(psi, dim, qa[g], qb[g]);
        }
    }
    double e = expval_z(psi, dim);
    if (grads != NULL) {
        adjoint(psi, psi + dim, dim, kinds, qa, qb, cs, n_gates, n_rot, grads);
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
    ptrdiff_t n_rot = count_rotations(kinds, n_gates);
    ptrdiff_t dim = ((ptrdiff_t)1) << n_qubits;
    cplx *psi = malloc(2 * dim * sizeof(cplx) + 2 * n_gates * sizeof(double));
    if (psi == NULL) {
        return -2;
    }
    double *cs = (double *)(psi + 2 * dim);
    for (ptrdiff_t r = 0; r < n_rows; r++) {
        const double *row = angles + r * n_gates;
        for (ptrdiff_t g = 0; g < n_gates; g++) {
            if (is_rotation(kinds[g])) {
                half_angle_trig(cs + 2 * g, row[g]);
            }
        }
        expvals[r] = circuit(psi, dim, kinds, qa, qb, cs, n_gates, n_rot,
                             grads == NULL ? NULL : grads + r * n_rot);
    }
    free(psi);
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

/* The policy circuit: gate g's parameter and the feature it reads (-1: a
 * nu angle) beside the gate arrays. */
struct policy {
    ptrdiff_t dim, n_gates, n_rot, n_params;
    const int8_t *kinds;
    const int32_t *qa, *qb, *param, *feature;
    const double *omega;
};

/* One step in raw state s (see trainer.play_episodes): the observation,
 * plus 4 draws of N(0, sigma) from bg when sigma > 0, the action uniform u
 * drawn next, then <Z^n>, the nu angles' trig already in cs. Returns the
 * action: right unless u < p0. Unless grads is NULL, the adjoint runs too
 * and coeff * d<Z^n>/d(param) go to glp_nu and glp_omega. */
static int policy_step(const struct policy *pol, const struct cartpole *cp, cplx *psi, double *cs,
                       double *grads, const double *s, double sigma, bitgen_t *bg, double *glp_nu,
                       double *glp_omega) {
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
            half_angle_trig(cs + 2 * g, pol->omega[pol->param[g]] * obs[pol->feature[g]]);
        }
    }
    double e = circuit(psi, pol->dim, pol->kinds, pol->qa, pol->qb, cs, pol->n_gates, pol->n_rot, grads);
    e = e < -1.0 ? -1.0 : e; /* np.maximum, then np.minimum: NaN stays NaN */
    e = e > 1.0 ? 1.0 : e;
    double p = (e + 1.0) / 2.0;
    int right = !(u < p);
    if (grads != NULL) {
        double pa = right ? 1.0 - p : p;
        pa = pa < 1e-12 ? 1e-12 : pa;
        double coeff = (right ? -1.0 : 1.0) / (2.0 * pa);
        for (ptrdiff_t g = 0, k = 0; g < pol->n_gates; g++) {
            if (is_rotation(pol->kinds[g]) && pol->feature[g] < 0) {
                glp_nu[pol->param[g]] = coeff * grads[k++];
            } else if (is_rotation(pol->kinds[g])) {
                glp_omega[pol->param[g]] = coeff * (grads[k++] * obs[pol->feature[g]]);
            }
        }
    }
    return right;
}

/* Plays episode i of n_episodes from raw state starts[4i..4i+3], drawing
 * from bitgens[i] under noise std sigmas[i], until it goes out of bounds
 * or reaches the horizon, and puts its step count, 0 for a start out of
 * bounds, in lengths[i]. Rotation g takes the angle nu[param[g]] when
 * feature[g] is -1, else omega[param[g]] * obs[feature[g]]. Unless glp_nu
 * is NULL, step t of episode i writes its grad log pi to [t, i] of the
 * (horizon, n_episodes, n_params) blocks glp_nu and glp_omega.
 *
 * Returns -1; or the index of the first bad gate, parameter or feature,
 * or -2 when the scratch cannot be allocated (nothing computed then). */
ptrdiff_t play_episodes(int n_qubits, const int8_t *kinds, const int32_t *qa, const int32_t *qb,
                        const int32_t *param, const int32_t *feature, ptrdiff_t n_gates,
                        const double *nu, const double *omega, ptrdiff_t n_params,
                        ptrdiff_t n_episodes, const double *starts, const double *sigmas,
                        bitgen_t *const *bitgens, ptrdiff_t horizon, double *glp_nu,
                        double *glp_omega, const struct cartpole *cp, int64_t *lengths) {
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
    struct policy pol = {((ptrdiff_t)1) << n_qubits, n_gates, count_rotations(kinds, n_gates), n_params,
                         kinds, qa, qb, param, feature, omega};
    cplx *psi = malloc(2 * pol.dim * sizeof(cplx) + (2 * n_gates + pol.n_rot) * sizeof(double));
    if (psi == NULL) {
        return -2;
    }
    double *cs = (double *)(psi + 2 * pol.dim);
    double *grads = glp_nu == NULL ? NULL : cs + 2 * n_gates;
    for (ptrdiff_t g = 0; g < n_gates; g++) {
        if (is_rotation(kinds[g]) && feature[g] < 0) {
            half_angle_trig(cs + 2 * g, nu[param[g]]);
        }
    }
    double square = SQUARE;
    for (ptrdiff_t i = 0; i < n_episodes; i++) {
        double s[2][N_FEATURES];
        memcpy(s[0], starts + N_FEATURES * i, sizeof s[0]);
        ptrdiff_t t = 0;
        for (int out = out_of_bounds(cp, s[0]); !out && t < horizon; t++) {
            ptrdiff_t row = (t * n_episodes + i) * n_params;
            int right = policy_step(&pol, cp, psi, cs, grads, s[t % 2], sigmas[i], bitgens[i],
                                    grads == NULL ? NULL : glp_nu + row, grads == NULL ? NULL : glp_omega + row);
            out = cartpole_step(cp, s[t % 2], right, square, s[(t + 1) % 2]);
        }
        lengths[i] = t;
    }
    free(psi);
    return -1;
}
