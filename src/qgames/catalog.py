"""Canonical game instances with their documented solutions.

Three parameterized entries are provided:

* ``penny_flip`` — the two-player coin game, both as a 2x4 normal form
  (player C picks one move, player Q picks a pair) and as a sequential
  quantum game on a single qubit with schedule Q, C, Q.
* ``prisoners_dilemma(alpha, beta, gamma)`` — sentences with
  0 < gamma < beta < alpha; quantumized on the entangled start
  (|00⟩ + i|11⟩)/√2 with the matching entangled measurement basis.
* ``battle_of_sexes(alpha, beta, gamma)`` — preferences alpha > beta >
  gamma; quantumized on |Φ⁺⟩ with local operator set {I, X}. The
  computational measurement basis is the default; a Bell-basis variant is
  selectable (see the entry notes).

Every documented solution is stored as a formula over the entry's
parameters and re-verified against the engine at load time.

The dilemma has no pure equilibrium over all of SU(2), and this is proved,
not sampled. Each player's forcing response reaches that player's top
payoff against any opponent move, so at a profile with payoffs π the two
unilateral gains add up to Σ_i (top_i − π_i) ≥ δ, where
δ = min over plays of Σ_i (top_i − π_i(play)) = min(2γ, α, 2β). The larger
gain is therefore at least δ/2 at every profile, and every profile is
refuted when δ/2 > 10ε. The premise is checked on the engine: the forced
final state is a real quadratic in the opponent's SU(2) coordinates x, so
it is fixed by its values at the 4 units and their 6 normalized pairwise
sums. Where each of those lands on the player's top play (unique when
γ > 0), every coefficient of the quadratic lies along that play's basis
vector, and so does the forced state at every x.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from .classical import (
    ClassicalGame,
    MixedProfile,
    dominant_strategies,
    expected_payoffs,
    max_pure_deviation_gain,
    mixed_nash_two_player,
    pareto_optimal_plays,
    pure_nash,
)
from .errors import ParameterError, ValidationError
from .equilibrium import (
    _SU2_BASIS,
    _require_epsilon,
    best_response,
    forcing_response,
    pareto_report,
    verify_nash,
    verify_nash_mixed_finite,
)
from .quantum import TOL, DensityMatrix, MeasurementBasis, UnitaryOperator
from .quantumize import (
    OperatorMixture,
    QuantumGame,
    SequentialQuantumGame,
    build_ewl,
    build_sequential,
    expected_payoffs_q,
    play_sequential,
)
from .strategies import (
    DEFECT,
    FLIP,
    HADAMARD,
    IDENTITY,
    StrategyFamily,
)

CATALOG_NAMES = ("penny_flip", "prisoners_dilemma", "battle_of_sexes")

_SQRT2 = float(np.sqrt(2.0))

#: (|00⟩ + i|11⟩)/√2 — the entangled start of the quantum dilemma game.
ETA_IN = np.array([1, 0, 0, 1j]) / _SQRT2

#: Entangled measurement directions, one per play (CC, CD, DC, DD).
ETA_VECTORS = {
    (0, 0): np.array([1, 0, 0, 1j]) / _SQRT2,
    (0, 1): np.array([0, 1, -1j, 0]) / _SQRT2,
    (1, 0): np.array([0, 1, 1j, 0]) / _SQRT2,
    (1, 1): np.array([1, 0, 0, -1j]) / _SQRT2,
}

PHI_PLUS = np.array([1, 0, 0, 1]) / _SQRT2
PSI_PLUS = np.array([0, 1, 1, 0]) / _SQRT2
PSI_MINUS = np.array([0, 1, -1, 0]) / _SQRT2
PHI_MINUS = np.array([1, 0, 0, -1]) / _SQRT2


#: SU(2) coordinates x of the 4 units and their 6 normalized pairwise sums:
#: a real quadratic in x is fixed by its values there.
_SU2_POINTS = np.vstack(
    [np.eye(4)] + [(np.eye(4)[j] + np.eye(4)[k]) / _SQRT2 for j, k in combinations(range(4), 2)]
)


def eta_basis() -> MeasurementBasis:
    labels = ((0, 0), (0, 1), (1, 0), (1, 1))
    return MeasurementBasis(np.column_stack([ETA_VECTORS[p] for p in labels]), labels)


def bell_basis() -> MeasurementBasis:
    """Bell vectors labelled by plays in the order Φ⁺, Ψ⁺, Ψ⁻, Φ⁻."""
    vectors = (PHI_PLUS, PSI_PLUS, PSI_MINUS, PHI_MINUS)
    labels = ((0, 0), (0, 1), (1, 0), (1, 1))
    return MeasurementBasis(np.column_stack(vectors), labels)


class CatalogVerificationError(ValidationError):
    """A documented solution failed re-verification at load time."""


@dataclass(frozen=True)
class SolutionCheck:
    label: str
    passed: bool
    details: dict


@dataclass(frozen=True)
class DocumentedSolution:
    """A labelled solution with its expected payoffs and a re-check callable."""

    label: str
    kind: str
    payoffs: tuple[float, ...] | None
    note: str
    check: Callable[["CatalogEntry", float], SolutionCheck] = field(repr=False)


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    parameters: dict[str, float]
    classical: ClassicalGame
    quantum: "QuantumGame | SequentialQuantumGame"
    strategy_family: StrategyFamily | None
    documented_solutions: tuple[DocumentedSolution, ...]
    notes: tuple[str, ...] = ()

    def verify(self, epsilon: float = 1e-6) -> list[SolutionCheck]:
        _require_epsilon(epsilon)
        return [sol.check(self, epsilon) for sol in self.documented_solutions]


def _require_params(name, given, defaults, constraint, constraint_text):
    params = dict(defaults)
    if given:
        unknown = set(given) - set(defaults)
        if unknown:
            raise ParameterError(f"{name} does not take parameter(s) {sorted(unknown)}")
        params.update({k: float(v) for k, v in given.items()})
    if not constraint(params):
        raise ParameterError(f"{name} requires {constraint_text}, got {params}")
    return params


# ---------------------------------------------------------------------------
# penny flip
# ---------------------------------------------------------------------------

def _penny_flip() -> CatalogEntry:
    # Normal form: player C picks one move, player Q picks (first, last).
    pi_c = np.array(
        [
            [-1.0, 1.0, 1.0, -1.0],  # C plays N against NN NF FN FF
            [1.0, -1.0, -1.0, 1.0],  # C plays F
        ]
    )
    classical = ClassicalGame(
        strategy_sets=(("N", "F"), ("NN", "NF", "FN", "FF")),
        payoffs=(pi_c, -pi_c),
        player_names=("C", "Q"),
    )
    sequential = build_sequential(
        state_labels=("H", "T"),
        initial_state=DensityMatrix(np.diag([1.0, 0.0]).astype(complex)),
        schedule=(0, 1, 0),  # Q, C, Q
        classical_moves={"N": UnitaryOperator(IDENTITY), "F": UnitaryOperator(FLIP)},
        state_payoffs=((1.0, -1.0), (-1.0, 1.0)),
        player_names=("Q", "C"),
    )

    def check_no_classical_solution(entry, epsilon):
        dominant = dominant_strategies(entry.classical)
        nash = pure_nash(entry.classical)
        passed = dominant == (None, None) and nash == []
        return SolutionCheck(
            "no dominant strategies, no pure equilibria",
            passed,
            {"dominant": dominant, "pure_nash": nash},
        )

    def check_mixed_equilibrium(entry, epsilon):
        profile = MixedProfile((np.array([0.5, 0.5]), np.full(4, 0.25)))
        payoffs = expected_payoffs(entry.classical, profile)
        gain = max_pure_deviation_gain(entry.classical, profile)
        ok = bool(np.all(np.abs(payoffs) <= 1e-9) and gain <= 1e-9)
        return SolutionCheck(
            "uniform mixed equilibrium, value 0",
            ok,
            {"payoffs": tuple(payoffs), "max_deviation_gain": gain},
        )

    def check_always_win(entry, epsilon):
        results = {}
        ok = True
        for name in ("F", "N"):
            reply = entry.quantum.classical_moves[name]
            payoffs = play_sequential(entry.quantum, [HADAMARD, reply, HADAMARD])
            results[name] = tuple(payoffs)
            ok = ok and abs(payoffs[0] - 1.0) <= 1e-12 and abs(payoffs[1] + 1.0) <= 1e-12
        return SolutionCheck(
            "balanced superposition move wins against both replies",
            ok,
            {"payoffs_by_reply": results},
        )

    solutions = (
        DocumentedSolution(
            "classical: no dominant strategy, no pure equilibrium",
            "classical_structure",
            None,
            "Neither player has a dominant move and deviation cycles rule out "
            "pure equilibria; the game is zero-sum.",
            check_no_classical_solution,
        ),
        DocumentedSolution(
            "classical: uniform mixed equilibrium",
            "classical_mixed_nash",
            (0.0, 0.0),
            "Each side mixing uniformly equalizes the opponent's options at "
            "value 0.",
            check_mixed_equilibrium,
        ),
        DocumentedSolution(
            "sequential: Q forces a win",
            "sequential_win",
            (1.0, -1.0),
            "Playing the balanced-superposition move before and after C's turn "
            "fixes the coin at heads: both classical replies leave the "
            "superposition invariant.",
            check_always_win,
        ),
    )
    return CatalogEntry(
        name="penny_flip",
        parameters={},
        classical=classical,
        quantum=sequential,
        strategy_family=StrategyFamily.finite((("N", IDENTITY), ("F", FLIP))),
        documented_solutions=solutions,
        notes=(
            "Normal-form player order is (C, Q); the sequential game orders "
            "players (Q, C) because Q moves first and last.",
        ),
    )


# ---------------------------------------------------------------------------
# prisoner's dilemma
# ---------------------------------------------------------------------------

def _prisoners_dilemma(params) -> CatalogEntry:
    a, b, g = params["alpha"], params["beta"], params["gamma"]
    pay_a = np.array([[-g, -a], [0.0, -b]])
    pay_b = np.array([[-g, 0.0], [-a, -b]])
    classical = ClassicalGame(
        strategy_sets=(("C", "D"), ("C", "D")),
        payoffs=(pay_a, pay_b),
        player_names=("A", "B"),
    )
    quantum = build_ewl(
        classical,
        DensityMatrix.from_pure(ETA_IN),
        eta_basis(),
    )
    # payoffs are compared within TOL relative to max |π| = alpha: their
    # rounding grows with the payoff scale
    slack = TOL * a

    def check_classical(entry, epsilon):
        dominant = dominant_strategies(entry.classical)
        nash = pure_nash(entry.classical)
        pareto = pareto_optimal_plays(entry.classical)
        ok = (
            dominant == (1, 1)
            and nash == [(1, 1)]
            and (0, 0) in pareto
            and (1, 1) not in pareto
        )
        return SolutionCheck(
            "defection dominates yet is Pareto-dominated",
            ok,
            {"dominant": dominant, "pure_nash": nash, "pareto_optimal": pareto},
        )

    def check_one_param(entry, epsilon):
        family = StrategyFamily.one_param()
        report = verify_nash(entry.quantum, ((np.pi,), (np.pi,)), family, epsilon)
        return SolutionCheck(
            "one-parameter equilibrium at mutual defection",
            bool(report.certified and np.all(np.abs(np.add(report.payoffs, b)) <= slack)),
            {
                "expected": (-b, -b),
                "actual": report.payoffs,
                "certified": report.certified,
                "gain": report.max_unilateral_gain,
            },
        )

    def check_two_param(entry, epsilon):
        family = StrategyFamily.two_param()
        report = verify_nash(
            entry.quantum,
            ((0.0, np.pi / 2), (0.0, np.pi / 2)),
            family,
            epsilon,
        )
        point, value = best_response(entry.quantum, 0, {1: UnitaryOperator(DEFECT)}, family)
        br_ok = np.allclose(point, (0.0, np.pi / 2), atol=TOL) and abs(value) <= slack
        ok = (
            report.certified
            and np.all(np.abs(np.add(report.payoffs, g)) <= slack)
            and br_ok
        )
        return SolutionCheck(
            "two-parameter phase equilibrium",
            bool(ok),
            {
                "payoffs": report.payoffs,
                "certified": report.certified,
                "best_response_to_defect": point,
            },
        )

    def check_three_param(entry, epsilon):
        # least_gain = δ/2 (module docstring), given the forcing premise
        payoffs = np.reshape(entry.classical.payoffs, (2, -1))
        top = payoffs.max(axis=1)
        least_gain = float((top[:, None] - payoffs).sum(axis=0).min()) / 2
        worst = 0.0
        for opp in (_SU2_POINTS @ _SU2_BASIS.T).reshape(-1, 2, 2):
            for i in range(2):
                play = [opp, opp]
                play[i] = forcing_response(entry.quantum, i, opp)
                worst = max(worst, float(top[i] - expected_payoffs_q(entry.quantum, play)[i]))
        ok = least_gain > 10 * epsilon and worst <= slack
        return SolutionCheck(
            "full unitary family admits no pure equilibrium",
            bool(ok),
            {"least_gain": least_gain, "forcing_shortfall": worst},
        )

    solutions = (
        DocumentedSolution(
            "classical: dominant defection",
            "classical_structure",
            (-b, -b),
            "Defection is strictly dominant yet mutual cooperation "
            "Pareto-dominates the resulting equilibrium.",
            check_classical,
        ),
        DocumentedSolution(
            "quantum, one-parameter family: mutual defection persists",
            "quantum_pure_nash",
            (-b, -b),
            "Restricting to real rotations reproduces the classical mixed "
            "game with cooperation probability cos²(θ/2).",
            check_one_param,
        ),
        DocumentedSolution(
            "quantum, two-parameter family: phase move equilibrium",
            "quantum_pure_nash",
            (-g, -g),
            "The phase move at (0, π/2) is a certified equilibrium with the "
            "Pareto-optimal payoff; it is also the best response to defection.",
            check_two_param,
        ),
        DocumentedSolution(
            "quantum, three-parameter family: no pure equilibrium",
            "quantum_no_nash",
            None,
            "Against any fixed full-unitary strategy the opponent has a "
            "closed-form response steering the state onto their best play, "
            "so at every profile the two gains add up to at least "
            "min(2*gamma, alpha, 2*beta); every profile is refuted when half "
            "that bound exceeds 10*epsilon.",
            check_three_param,
        ),
    )
    return CatalogEntry(
        name="prisoners_dilemma",
        parameters=params,
        classical=classical,
        quantum=quantum,
        strategy_family=StrategyFamily.two_param(),
        documented_solutions=solutions,
        notes=(
            "The literature's closed form U_D·U_opp† for the forcing response "
            "holds only at special opponents; the exact response is derived "
            "from the transpose identity on maximally entangled states.",
            "The quoted best-response set {φ = π/2, any θ} to the phase move "
            "is not flat: only θ = 0 attains the optimum. The equilibrium "
            "itself is unaffected.",
        ),
    )


# ---------------------------------------------------------------------------
# battle of sexes
# ---------------------------------------------------------------------------

def _battle_of_sexes(params, basis_choice: str) -> CatalogEntry:
    a, b, g = params["alpha"], params["beta"], params["gamma"]
    pay_a = np.array([[a, g], [g, b]])
    pay_b = np.array([[b, g], [g, a]])
    classical = ClassicalGame(
        strategy_sets=(("O", "T"), ("O", "T")),
        payoffs=(pay_a, pay_b),
        player_names=("A", "B"),
    )
    basis = bell_basis() if basis_choice == "bell" else None
    quantum = build_ewl(classical, DensityMatrix.from_pure(PHI_PLUS), basis)
    family = StrategyFamily.finite((("I", IDENTITY), ("X", FLIP)))

    denom = a + b - 2 * g
    p_o = (a - g) / denom
    q_o = (b - g) / denom
    mixed_value = (a * b - g * g) / denom

    def check_pure(entry, epsilon):
        nash = pure_nash(entry.classical)
        ok = nash == [(0, 0), (1, 1)]
        payoffs = [tuple(entry.classical.payoff_vector(p)) for p in nash]
        return SolutionCheck(
            "two pure equilibria (O,O) and (T,T)",
            ok,
            {"pure_nash": nash, "payoffs": payoffs},
        )

    def check_mixed(entry, epsilon):
        profile = MixedProfile((np.array([p_o, 1 - p_o]), np.array([q_o, 1 - q_o])))
        payoffs = expected_payoffs(entry.classical, profile)
        gain = max_pure_deviation_gain(entry.classical, profile)
        solutions = mixed_nash_two_player(entry.classical)
        contains = any(
            np.allclose(s.distributions[0], profile.distributions[0], atol=1e-9)
            and np.allclose(s.distributions[1], profile.distributions[1], atol=1e-9)
            for s in solutions
        )
        ok = (
            np.all(np.abs(payoffs - mixed_value) <= 1e-9)
            and gain <= 1e-9
            and contains
        )
        return SolutionCheck(
            "interior mixed equilibrium from indifference",
            bool(ok),
            {
                "profile": (p_o, q_o),
                "payoffs": tuple(payoffs),
                "found_by_support_enumeration": contains,
            },
        )

    def check_quantum_pure(entry, epsilon):
        ok = True
        observed = {}
        expected = (
            ((a + b) / 2.0, (a + b) / 2.0)
            if basis_choice == "computational"
            else (a, b)
        )
        for label in ("I", "X"):
            op = family.operator(label)
            mixtures = [OperatorMixture.pure(op), OperatorMixture.pure(op)]
            report = verify_nash_mixed_finite(
                entry.quantum, mixtures, (family, family), epsilon
            )
            observed[label] = report.payoffs
            ok = ok and report.certified and np.allclose(report.payoffs, expected, atol=1e-9)
        return SolutionCheck(
            "matched pure operator plays are equilibria",
            bool(ok),
            {"payoffs": observed, "expected": expected},
        )

    def check_quantum_mixed(entry, epsilon):
        mixtures = [
            OperatorMixture.over_family(family, [0.5, 0.5]),
            OperatorMixture.over_family(family, [0.5, 0.5]),
        ]
        report = verify_nash_mixed_finite(entry.quantum, mixtures, (family, family), epsilon)
        expected = (
            ((a + b + 2 * g) / 4.0,) * 2
            if basis_choice == "computational"
            else ((a + g) / 2.0, (b + g) / 2.0)
        )
        ok = report.certified and np.allclose(report.payoffs, expected, atol=1e-9)
        return SolutionCheck(
            "uniform operator mixtures form an equilibrium",
            bool(ok),
            {"payoffs": report.payoffs, "expected": expected},
        )

    def check_pareto(entry, epsilon):
        if basis_choice != "computational":
            return SolutionCheck(
                "pure quantum equilibria are Pareto-optimal",
                True,
                {"skipped": "documented for the computational basis"},
            )
        entries = [
            ("classical_mixed", (mixed_value, mixed_value)),
            ("quantum_pure_II", ((a + b) / 2.0, (a + b) / 2.0)),
            ("quantum_pure_XX", ((a + b) / 2.0, (a + b) / 2.0)),
            ("quantum_mixed", ((a + b + 2 * g) / 4.0, (a + b + 2 * g) / 4.0)),
        ]
        report = pareto_report(entries)
        ok = set(report.optimal) == {"quantum_pure_II", "quantum_pure_XX"}
        return SolutionCheck(
            "pure quantum equilibria are Pareto-optimal",
            bool(ok),
            {"optimal": report.optimal},
        )

    solutions = (
        DocumentedSolution(
            "classical: coordination equilibria",
            "classical_structure",
            None,
            "Both coordinated plays are pure equilibria.",
            check_pure,
        ),
        DocumentedSolution(
            "classical: interior mixed equilibrium",
            "classical_mixed_nash",
            (mixed_value, mixed_value),
            "Probabilities follow from the opponent-indifference conditions, "
            "with denominator alpha+beta-2*gamma. A sometimes-quoted variant "
            "with denominator alpha+beta-gamma does not normalize and is "
            "treated as a misprint; the payoff value (alpha*beta-gamma^2)/"
            "(alpha+beta-2*gamma) is unaffected.",
            check_mixed,
        ),
        DocumentedSolution(
            "quantum: matched operator equilibria",
            "quantum_finite_nash",
            None,
            "Either matched play of the two local operators is a certified "
            "equilibrium of the entangled game.",
            check_quantum_pure,
        ),
        DocumentedSolution(
            "quantum: uniform mixture equilibrium",
            "quantum_finite_nash",
            None,
            "At the uniform opponent mixture every own mixture ties, so the "
            "uniform pair certifies. Direct maximization of the payoff gives "
            "a coordination-style best response (match the opponent's "
            "majority operator); case listings with the opposite assignment "
            "do not change the (1/2, 1/2) equilibrium.",
            check_quantum_mixed,
        ),
        DocumentedSolution(
            "quantum equilibria Pareto-dominate the classical mixed one",
            "pareto_ranking",
            None,
            "Among the classical mixed value, the matched-operator value and "
            "the uniform-mixture value, the matched-operator equilibria are "
            "the undominated set.",
            check_pareto,
        ),
    )
    notes = [
        "Quantum payoffs are stated for the computational measurement basis, "
        "which reproduces the documented values (alpha+beta)/2 and "
        "(alpha+beta+2*gamma)/4; a Bell-basis variant is selectable with "
        "basis='bell' and yields (alpha, beta) at matched plays instead.",
    ]
    return CatalogEntry(
        name="battle_of_sexes",
        parameters=params,
        classical=classical,
        quantum=quantum,
        strategy_family=family,
        documented_solutions=solutions,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def load(
    name: str,
    parameters: dict[str, float] | None = None,
    *,
    basis: str = "computational",
    verify: bool = True,
) -> CatalogEntry:
    """Construct a catalog entry and re-verify its documented solutions.

    ``basis`` selects the measurement convention for ``battle_of_sexes``
    ("computational" or "bell"). Verification can be skipped for speed when
    the caller will run the checks itself.
    """
    if name == "penny_flip":
        if parameters:
            raise ParameterError("penny_flip takes no parameters")
        entry = _penny_flip()
    elif name == "prisoners_dilemma":
        params = _require_params(
            name,
            parameters,
            {"alpha": 5.0, "beta": 3.0, "gamma": 1.0},
            lambda p: 0 < p["gamma"] < p["beta"] < p["alpha"],
            "0 < gamma < beta < alpha",
        )
        entry = _prisoners_dilemma(params)
    elif name == "battle_of_sexes":
        params = _require_params(
            name,
            parameters,
            {"alpha": 3.0, "beta": 2.0, "gamma": 1.0},
            lambda p: p["alpha"] > p["beta"] > p["gamma"],
            "alpha > beta > gamma",
        )
        if basis not in ("computational", "bell"):
            raise ParameterError(f"unknown basis variant {basis!r}")
        entry = _battle_of_sexes(params, basis)
    else:
        raise ParameterError(
            f"unknown catalog entry {name!r}; available: {', '.join(CATALOG_NAMES)}"
        )
    if verify:
        checks = entry.verify()
        failed = [c for c in checks if not c.passed]
        if failed:
            raise CatalogVerificationError(
                f"documented solutions failed re-verification: "
                f"{[c.label for c in failed]}"
            )
    return entry
