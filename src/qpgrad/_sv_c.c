/* Compiled statevector kernel (hot path), called through ctypes by _sv_c.py.
 *
 * Same gates, conventions and packed gate arrays as _sv_numpy; qubit q is
 * bit q of the basis index. Every loop and floating-point expression is
 * spelled as the earlier Cython kernel's generated C spelled it, so results
 * are bit-identical to it: a real factor c enters a complex product as
 * cplx_of(c, 0) = c + 0*I, a full complex product. Build with -O2
 * -ffp-contract=off, never -ffast-math or -march=native: those may change
 * the last bits. */

#include <complex.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef double complex cplx;

enum { KIND_H = 0, KIND_RY = 1, KIND_RZ = 2, KIND_CZ = 3 };

static inline cplx cplx_of(double x, double y) {
    return x + y * (cplx)_Complex_I;
}

static inline void ry(cplx *a, ptrdiff_t dim, int q, double angle) {
    double c = cos(0.5 * angle);
    double s = sin(0.5 * angle);
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

static inline void rz(cplx *a, ptrdiff_t dim, int q, double angle) {
    double c = cos(0.5 * angle);
    double s = sin(0.5 * angle);
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

static void apply_all(cplx *a, ptrdiff_t dim, const int8_t *kinds, const int32_t *qa,
                      const int32_t *qb, const double *angles, ptrdiff_t n_gates) {
    for (ptrdiff_t g = 0; g < n_gates; g++) {
        int kind = kinds[g];
        if (kind == KIND_RY) {
            ry(a, dim, qa[g], angles[g]);
        } else if (kind == KIND_RZ) {
            rz(a, dim, qa[g], angles[g]);
        } else if (kind == KIND_H) {
            h(a, dim, qa[g]);
        } else {
            cz(a, dim, qa[g], qb[g]);
        }
    }
}

/* 2 Re <lam| dU/dangle |psi>, psi being the state *before* the gate. */
static inline double grad_dot(const cplx *lam, const cplx *psi, ptrdiff_t dim, int kind,
                              int q, double angle) {
    double c = cos(0.5 * angle);
    double s = sin(0.5 * angle);
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

/* Apply the packed gate list to the 2**n_qubits amplitudes in place.
 * Returns -1, or the index of the first bad gate (nothing applied then). */
ptrdiff_t apply_ops(cplx *amps, int n_qubits, const int8_t *kinds, const int32_t *qa,
                    const int32_t *qb, const double *angles, ptrdiff_t n_gates) {
    ptrdiff_t bad = bad_gate(n_qubits, kinds, qa, qb, n_gates);
    if (bad < 0) {
        apply_all(amps, ((ptrdiff_t)1) << n_qubits, kinds, qa, qb, angles, n_gates);
    }
    return bad;
}

/* <Z tensor ... tensor Z>; exactly real by construction. */
double expval_z(const cplx *amps, int n_qubits) {
    ptrdiff_t dim = ((ptrdiff_t)1) << n_qubits;
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
                    const int32_t *qa, const int32_t *qb, const double *angles,
                    ptrdiff_t n_gates, ptrdiff_t n_rot, double *grads) {
    ptrdiff_t r = n_rot - 1;
    for (ptrdiff_t i = 0; i < dim; i++) {
        lam[i] = parity(i) ? -psi[i] : psi[i];
    }
    for (ptrdiff_t g = n_gates - 1; g > -1; g--) {
        int kind = kinds[g];
        double angle = angles[g];
        if (kind == KIND_RY) {
            ry(psi, dim, qa[g], -angle);
            grads[r] = grad_dot(lam, psi, dim, kind, qa[g], angle);
            r -= 1;
            ry(lam, dim, qa[g], -angle);
        } else if (kind == KIND_RZ) {
            rz(psi, dim, qa[g], -angle);
            grads[r] = grad_dot(lam, psi, dim, kind, qa[g], angle);
            r -= 1;
            rz(lam, dim, qa[g], -angle);
        } else if (kind == KIND_H) {
            h(psi, dim, qa[g]);
            h(lam, dim, qa[g]);
        } else {
            cz(psi, dim, qa[g], qb[g]);
            cz(lam, dim, qa[g], qb[g]);
        }
    }
}

/* One circuit per row of the (n_rows, n_gates) angles block, all sharing
 * the packed gate list: <Z^n> of |0...0> evolved through row r into
 * expvals[r] and, unless grads is NULL, its adjoint gradient into row r of
 * the (n_rows, rotations) grads block. Each row runs exactly as a circuit
 * alone would, so its results do not depend on the other rows. Returns -1;
 * or the index of the first bad gate, or -2 when the scratch states cannot
 * be allocated (nothing computed then). */
ptrdiff_t expval_z_and_grad_rows(int n_qubits, const int8_t *kinds, const int32_t *qa,
                                 const int32_t *qb, const double *angles, ptrdiff_t n_gates,
                                 ptrdiff_t n_rows, double *grads, double *expvals) {
    ptrdiff_t bad = bad_gate(n_qubits, kinds, qa, qb, n_gates);
    if (bad >= 0) {
        return bad;
    }
    ptrdiff_t n_rot = 0;
    for (ptrdiff_t g = 0; g < n_gates; g++) {
        if (kinds[g] == KIND_RY || kinds[g] == KIND_RZ) {
            n_rot += 1;
        }
    }
    ptrdiff_t dim = ((ptrdiff_t)1) << n_qubits;
    cplx *psi = malloc((grads == NULL ? dim : 2 * dim) * sizeof(cplx));
    if (psi == NULL) {
        return -2;
    }
    for (ptrdiff_t r = 0; r < n_rows; r++) {
        const double *row = angles + r * n_gates;
        memset(psi, 0, dim * sizeof(cplx)); /* all +0.0 */
        psi[0] = 1.0;
        apply_all(psi, dim, kinds, qa, qb, row, n_gates);
        expvals[r] = expval_z(psi, n_qubits);
        if (grads != NULL) {
            adjoint(psi, psi + dim, dim, kinds, qa, qb, row, n_gates, n_rot, grads + r * n_rot);
        }
    }
    free(psi);
    return -1;
}
