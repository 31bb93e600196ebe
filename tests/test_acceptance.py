"""Acceptance gate: eleven numbered criteria, one verdict line each.

Every test measures its quantities first, then records a single
``criterion NN PASS/FAIL`` line (shown in the terminal summary and on
stdout) before asserting, so a red run still reports every verdict.
"""

import numpy as np
import pytest
from conftest import column_zero_recover, read_decay_csv

from annulab.bergman import (
    build_bergman_section_quadrature,
    build_bergman_toeplitz,
    zero_product_experiment_bergman,
)
from annulab.cli import (
    RECONSTRUCT_DEGREE,
    RECONSTRUCT_Z_START,
    RECONSTRUCT_Z_STEP,
    TRIAL_BANDS,
    TRIAL_PROFILE_DEGREE,
    TRIAL_REACH,
    TRIALS,
)
from annulab.geometry import AnnulusGeometry, gram_matrix
from annulab.hardy import (
    build_section_quadrature,
    build_toeplitz_hardy,
    dense,
    semicommutator_residual_annulus,
    zero_product_experiment_hardy,
)
from annulab.mellin import (
    mellin_poly_reconstruct,
    mellin_quadrature,
    mellin_transform,
)
from annulab.randgen import Lcg, random_boundary_symbol, random_polar_symbol
from annulab.reduction import (
    DECAY_OBSERVED,
    NO_DECAY,
    DecayProfile,
    assemble_transfer_unitaries,
    classify_decay,
    conjugate_basis_coeffs,
    conjugate_reflection_residual,
    diagram_residual,
    hankel_compactness_indicator,
    semicommutator_residual_disc,
    split_relation_residual,
    tail_index,
)
from annulab.reference import reference_symbol
from annulab.report import write_decay_csv
from annulab.symbols import (
    PolarSymbol,
    PolyProfile,
    fourier_pair,
    laurent_symbol,
    pullback_symbols,
)

R = 0.5
SEED = 1


def announce(request, number: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'} {label}: {detail}"
    store = getattr(request.config, "_acceptance_lines", None)
    if store is None:
        store = []
        request.config._acceptance_lines = store
    store.append(line)
    print(line)


def test_criterion_01_basis_orthonormality(request, geo):
    ok, detail = False, "no measurement"
    try:
        G = gram_matrix(geo, 20)
        dev = float(np.max(np.abs(G - np.eye(G.shape[0]))))
        ok = dev <= 1e-10
        detail = f"gram deviation {dev:.3e}, tolerance 1e-10"
    finally:
        announce(request, 1, "basis orthonormality", ok, detail)
    assert ok, detail


def test_criterion_02_entry_formula_fidelity(request, geo):
    ok, detail = False, "no measurement"
    try:
        rng = Lcg(SEED)
        worst = 0.0
        for _ in range(20):
            sym = random_boundary_symbol(rng, 6)
            sec = dense(build_toeplitz_hardy(sym, (-8, 8), R))
            quad = build_section_quadrature(sym, (-8, 8), geo)[0]
            worst = max(worst, float(np.max(np.abs(sec - quad))))
        ok = worst <= 1e-10
        detail = f"worst closed-vs-quadrature deviation {worst:.3e}, tolerance 1e-10"
    finally:
        announce(request, 2, "entry formula fidelity", ok, detail)
    assert ok, detail


def test_criterion_03_unit_symbol_identity(request):
    ok, detail = False, "no measurement"
    try:
        hardy_sec = dense(build_toeplitz_hardy(laurent_symbol({0: 1.0}, R), (-32, 32), R))
        dev_h = float(np.max(np.abs(hardy_sec - np.eye(65))))
        berg_sec = dense(build_bergman_toeplitz(
            PolarSymbol({0: PolyProfile({0: 1.0 + 0.0j})}), (-1, 32), R
        ))
        dev_b = float(np.max(np.abs(berg_sec - np.eye(34))))
        ok = dev_h <= 1e-12 and dev_b <= 1e-12
        detail = (
            f"two-circle deviation {dev_h:.3e}, area deviation {dev_b:.3e}, "
            "tolerance 1e-12"
        )
    finally:
        announce(request, 3, "unit symbol gives identity sections", ok, detail)
    assert ok, detail


def test_criterion_04_conjugate_basis_identity(request):
    ok, detail = False, "no measurement"
    try:
        geo128 = AnnulusGeometry(R=R, m_circle=128)
        worst_pt = max(
            conjugate_reflection_residual(n, geo128) for n in range(-10, 11)
        )
        worst_unit = 0.0
        for n in range(-30, 31):
            alpha, beta = conjugate_basis_coeffs(n, R)
            worst_unit = max(worst_unit, abs(alpha * alpha + beta * beta - 1.0))
        ok = worst_pt <= 1e-12 and worst_unit <= 1e-14
        detail = (
            f"pointwise residual {worst_pt:.3e} (tol 1e-12), "
            f"coefficient unit-circle defect {worst_unit:.3e} (tol 1e-14)"
        )
    finally:
        announce(request, 4, "conjugate basis identity", ok, detail)
    assert ok, detail


def test_criterion_05_semicommutator_identity(request):
    ok, detail = False, "no measurement"
    try:
        rng = Lcg(SEED)
        worst_ann = 0.0
        worst_disc = 0.0
        for _ in range(20):
            f = random_boundary_symbol(rng, TRIAL_REACH)
            g = random_boundary_symbol(rng, TRIAL_REACH)
            resid, _ = semicommutator_residual_annulus(f, g, (-32, 32), R)
            worst_ann = max(worst_ann, resid)
            resid_d, _ = semicommutator_residual_disc(
                pullback_symbols(f)[0], pullback_symbols(g)[0], 40
            )
            worst_disc = max(worst_disc, resid_d)
        ok = worst_ann <= 1e-10 and worst_disc <= 1e-10
        detail = (
            f"worst interior residual: annulus {worst_ann:.3e}, "
            f"disc {worst_disc:.3e}, tolerance 1e-10"
        )
    finally:
        announce(request, 5, "semicommutator identity", ok, detail)
    assert ok, detail


def test_criterion_06_reduction_diagram_and_splits(request, small_geo):
    ok, detail = False, "no measurement"
    try:
        rng = Lcg(SEED)
        worst = 0.0
        unitaries = assemble_transfer_unitaries(24, small_geo)
        for _ in range(10):
            phi = random_boundary_symbol(rng, TRIAL_REACH)
            worst = max(worst, diagram_residual(phi, small_geo, *unitaries))
            r1, r2 = split_relation_residual(phi, 24, small_geo)
            worst = max(worst, r1, r2)
        ok = worst <= 1e-10
        detail = f"worst diagram/split residual {worst:.3e}, tolerance 1e-10"
    finally:
        announce(request, 6, "reduction diagram and split relations", ok, detail)
    assert ok, detail


def test_criterion_07_two_column_recovery(request):
    ok, detail = False, "no measurement"
    try:
        rng = Lcg(SEED)
        worst = 0.0
        clean = True
        for _ in range(5):
            sym = random_boundary_symbol(rng, 6)
            sec = dense(build_toeplitz_hardy(sym, (-9, 9), R))
            pairs = column_zero_recover(sec, -9, -2, 3, R)
            for n in range(-6, 7):
                fC, fC0 = fourier_pair(sym, n)
                gC, gC0 = pairs[n]
                worst = max(worst, abs(fC - gC), abs(fC0 - gC0))
            ent = sec.copy()
            ent[:, -2 + 9] = 0.0
            ent[:, 3 + 9] = 0.0
            wiped = column_zero_recover(ent, -9, -2, 3, R)
            clean = clean and all(v == (0.0, 0.0) for v in wiped.values())
        ok = worst <= 1e-10 and clean
        detail = (
            f"worst recovered-pair deviation {worst:.3e} (tol 1e-10), "
            f"zeroed columns recover zero: {clean}"
        )
    finally:
        announce(request, 7, "two-column coefficient recovery", ok, detail)
    assert ok, detail


def test_criterion_08_mellin_module(request, geo):
    ok, detail = False, "no measurement"
    try:
        rng = Lcg(SEED)
        profile = PolyProfile({d: rng.coefficient() for d in range(11)})
        worst_quad = 0.0
        for z in np.arange(-5.0, 10.0 + 0.25, 0.5):
            closed = mellin_transform(profile, float(z), R)
            quad = mellin_quadrature(profile, float(z), geo)
            worst_quad = max(worst_quad, abs(closed - quad))
        R_thin = 0.1
        target = PolyProfile(
            {d: rng.coefficient() for d in range(RECONSTRUCT_DEGREE + 1)}
        )
        values = [
            mellin_transform(
                target, RECONSTRUCT_Z_START + RECONSTRUCT_Z_STEP * j, R_thin
            )
            for j in range(RECONSTRUCT_DEGREE + 1)
        ]
        rec = mellin_poly_reconstruct(
            values, RECONSTRUCT_Z_START, RECONSTRUCT_Z_STEP, R_thin
        )
        worst_rec = max(
            abs(rec.coeffs.get(d, 0.0) - target.coeffs.get(d, 0.0))
            for d in range(RECONSTRUCT_DEGREE + 1)
        )
        ok = worst_quad <= 1e-10 and worst_rec <= 1e-8
        detail = (
            f"closed-vs-quadrature {worst_quad:.3e} (tol 1e-10), "
            f"degree-6 round-trip {worst_rec:.3e} (tol 1e-8)"
        )
    finally:
        announce(request, 8, "radial moment module", ok, detail)
    assert ok, detail


def test_criterion_09_bergman_structure(request, geo):
    ok, detail = False, "no measurement"
    try:
        band = dense(build_bergman_toeplitz(
            PolarSymbol({3: PolyProfile({2: 1.0 + 0.0j})}), (-1, 8), R
        ))
        single = True
        for a, m in enumerate(range(-1, 9)):
            for b, n in enumerate(range(-1, 9)):
                if m - n != 3:
                    single = single and band[a, b] == 0.0
                else:
                    single = single and abs(band[a, b]) > 0.0
        rng = Lcg(SEED)
        sym = random_polar_symbol(rng, -2, 2, 6)
        sec = dense(build_bergman_toeplitz(sym, (-8, 8), R))
        quad = build_bergman_section_quadrature(sym, (-8, 8), geo)
        dev = float(np.max(np.abs(sec - quad)))
        f = dense(build_bergman_toeplitz(
            PolarSymbol({0: PolyProfile({1: 1.0 + 0.0j})}), (-1, 10), R
        ))
        g = dense(build_bergman_toeplitz(
            PolarSymbol({0: PolyProfile({0: 0.5 + 0.0j, 3: 1.0 + 0.0j})}), (-1, 10), R
        ))
        commute = bool(
            np.array_equal(f @ g, g @ f)
        )
        ok = single and dev <= 1e-10 and commute
        detail = (
            f"single subdiagonal: {single}, quadrature deviation {dev:.3e} "
            f"(tol 1e-10), radial sections commute exactly: {commute}"
        )
    finally:
        announce(request, 9, "area-space section structure", ok, detail)
    assert ok, detail


def test_criterion_10_zero_product_harnesses(request):
    ok, detail = False, "no measurement"
    try:
        rng = Lcg(SEED)
        worst_ladder = 0.0
        min_norm = float("inf")
        consistent = True
        for _ in range(TRIALS):
            f = random_boundary_symbol(rng, TRIAL_REACH)
            g = random_boundary_symbol(rng, TRIAL_REACH)
            [rep] = zero_product_experiment_hardy([(f, g)], (-32, 32), R)
            worst_ladder = max(worst_ladder, max(rep.ladder_residuals))
            min_norm = min(min_norm, rep.min_product_column_norm)
            consistent = consistent and rep.verdict == "ConsistentWithTheorem"
        rng = Lcg(SEED)
        for _ in range(TRIALS):
            f = random_polar_symbol(
                rng, TRIAL_BANDS[0], TRIAL_BANDS[1], TRIAL_PROFILE_DEGREE
            )
            g = random_polar_symbol(
                rng, TRIAL_BANDS[0], TRIAL_BANDS[1], TRIAL_PROFILE_DEGREE,
                monomial_top=True,
            )
            [rep] = zero_product_experiment_bergman([(f, g)], (-24, 24), R)
            worst_ladder = max(worst_ladder, max(rep.ladder_residuals))
            min_norm = min(min_norm, rep.min_product_column_norm)
            consistent = consistent and rep.verdict == "ConsistentWithTheorem"
        ok = worst_ladder <= 1e-10 and min_norm > 1e-6 and consistent
        detail = (
            f"worst ladder residual {worst_ladder:.3e} (tol 1e-10), smallest "
            f"interior column norm {min_norm:.3e} (floor 1e-6), 40 trials"
        )
    finally:
        announce(request, 10, "zero-product falsification harnesses", ok, detail)
    assert ok, detail


def test_criterion_11_decay_indicator_calibration(request, tmp_path):
    ok, detail = False, "no measurement"
    try:
        sizes = (64, 128, 256, 512)
        v_analytic, _ = hankel_compactness_indicator(
            reference_symbol("analytic-square", R), sizes
        )
        v_const, _ = hankel_compactness_indicator(
            reference_symbol("split-sign", R), sizes
        )
        v_singular, profiles = hankel_compactness_indicator(
            reference_symbol("conjugated-singular-inner", R), sizes
        )
        path1 = tmp_path / "decay.csv"
        path2 = tmp_path / "decay-again.csv"
        write_decay_csv(path1, profiles)
        write_decay_csv(path2, profiles)
        stable = path1.read_bytes() == path2.read_bytes()
        rebuilt = [
            DecayProfile(pullback=pb, sizes=list(sizes), epsilon=0.5)
            for pb in ("C", "C0")
        ]
        for s, per_size in read_decay_csv(path1):
            for p, sig in zip(rebuilt, per_size):
                p.singular_values[s] = sig
                p.tail_indices[s] = tail_index(sig, 0.5)
        replayed = classify_decay(rebuilt)
        ok = (
            v_analytic == DECAY_OBSERVED
            and v_const == DECAY_OBSERVED
            and v_singular == NO_DECAY
            and stable
            and replayed == v_singular
        )
        detail = (
            f"analytic {v_analytic}, two-sided constant {v_const}, "
            f"conjugated singular inner {v_singular}; byte-stable csv: "
            f"{stable}, replayed verdict {replayed}"
        )
    finally:
        announce(request, 11, "decay indicator calibration", ok, detail)
    assert ok, detail
