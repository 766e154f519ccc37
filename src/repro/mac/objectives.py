"""Scheduling objectives J1 and J2 (Section 3.2, eqs. (19)–(23)).

Both objectives are linear in the decision variables ``m_j``:

* **J1 — system throughput** (eq. (19)):

  ``J1(m) = sum_j m_j * delta_rho_j * (1 + Delta_j)``

  where ``delta_rho_j`` is the relative average SCH throughput of request
  ``j`` (a function of its local-mean CSI) and ``Delta_j`` its traffic-type
  priority.  Requests offering a high transmission rate per unit of ``m`` are
  favoured.

* **J2 — throughput / delay trade-off** (eq. (20)):

  ``J2(m) = sum_j [ m_j * delta_rho_j * (1 + Delta_j) - f(w_j, m_j * delta_rho_j) ]``

  with the delay-penalty function ``f`` of eq. (21).  The paper states that
  ``f`` is *linear* in ``m_j * delta_rho_j``, increases with the overall
  request delay ``w_j = t_w + D_s`` (eq. (22), with the MAC setup penalty
  ``D_s`` of eq. (23)) and decreases with the granted throughput.  The exact
  functional form is OCR-garbled in the scanned paper, so we use the
  instantiation

  ``f(w, x) = lambda * w * max(0, 1 - mu * x)``,

  which satisfies all three stated properties and keeps J2 linear in ``m_j``
  wherever it matters: substituting, the per-request objective coefficient
  becomes ``delta_rho_j * (1 + Delta_j + lambda * mu * w_j)`` plus a constant
  offset ``-lambda * w_j`` that does not depend on the decision.  In other
  words, J2 boosts the weight of long-waiting requests so they are not
  starved by better-channel competitors — exactly the trade-off the paper
  describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import MacConfig
from repro.utils.validation import check_non_negative

__all__ = ["linear_delay_penalty", "ThroughputObjective", "DelayAwareObjective"]


def linear_delay_penalty(
    waiting_time_s: float, granted_relative_rate: float, scale: float, forgetting: float
) -> float:
    """Delay penalty ``f(w, x) = lambda * w * max(0, 1 - mu * x)`` (eq. (21)).

    Parameters
    ----------
    waiting_time_s:
        Overall request delay ``w = t_w + D_s``.
    granted_relative_rate:
        ``x = m * delta_rho`` of the candidate grant.
    scale:
        Scaling factor ``lambda``.
    forgetting:
        Delay forgetting factor ``mu``.
    """
    check_non_negative("waiting_time_s", waiting_time_s)
    check_non_negative("granted_relative_rate", granted_relative_rate)
    check_non_negative("scale", scale)
    check_non_negative("forgetting", forgetting)
    return scale * waiting_time_s * max(0.0, 1.0 - forgetting * granted_relative_rate)


@dataclass(frozen=True)
class ThroughputObjective:
    """J1: maximise the aggregate (priority-weighted) transmission rate."""

    name: str = "J1"

    def weights(
        self,
        delta_rho: np.ndarray,
        priorities: np.ndarray,
        waiting_times_s: np.ndarray,
        config: MacConfig,
    ) -> np.ndarray:
        """Per-request objective coefficients ``c_j`` (the ``m_j`` multipliers)."""
        delta_rho = np.asarray(delta_rho, dtype=float)
        priorities = np.asarray(priorities, dtype=float)
        if delta_rho.shape != priorities.shape:
            raise ValueError("delta_rho and priorities must have the same shape")
        return delta_rho * (1.0 + priorities)

    def value(
        self,
        assignment: np.ndarray,
        delta_rho: np.ndarray,
        priorities: np.ndarray,
        waiting_times_s: np.ndarray,
        config: MacConfig,
    ) -> float:
        """Objective value of an assignment (eq. (19))."""
        weights = self.weights(delta_rho, priorities, waiting_times_s, config)
        return float(np.asarray(assignment, dtype=float) @ weights)


@dataclass(frozen=True)
class DelayAwareObjective:
    """J2: trade aggregate throughput against the delay penalties of eq. (21)."""

    name: str = "J2"

    def weights(
        self,
        delta_rho: np.ndarray,
        priorities: np.ndarray,
        waiting_times_s: np.ndarray,
        config: MacConfig,
    ) -> np.ndarray:
        """Per-request coefficients including the delay-penalty boost.

        From ``f(w, x) = lambda*w*(1 - mu*x)`` (for ``mu*x <= 1``) the
        ``m_j``-dependent part of J2 is
        ``m_j * delta_rho_j * (1 + Delta_j + lambda*mu*w_j)``.
        """
        delta_rho = np.asarray(delta_rho, dtype=float)
        priorities = np.asarray(priorities, dtype=float)
        waiting = np.asarray(waiting_times_s, dtype=float)
        if not (delta_rho.shape == priorities.shape == waiting.shape):
            raise ValueError("inputs must have the same shape")
        boost = config.delay_penalty_scale * config.delay_forgetting_factor * waiting
        return delta_rho * (1.0 + priorities + boost)

    def value(
        self,
        assignment: np.ndarray,
        delta_rho: np.ndarray,
        priorities: np.ndarray,
        waiting_times_s: np.ndarray,
        config: MacConfig,
    ) -> float:
        """Exact J2 value of an assignment (eq. (20)), including the constant terms."""
        assignment = np.asarray(assignment, dtype=float)
        delta_rho = np.asarray(delta_rho, dtype=float)
        priorities = np.asarray(priorities, dtype=float)
        waiting = np.asarray(waiting_times_s, dtype=float)
        total = 0.0
        for m, rho, prio, w in zip(assignment, delta_rho, priorities, waiting):
            rate = m * rho
            total += rate * (1.0 + prio) - linear_delay_penalty(
                w, rate, config.delay_penalty_scale, config.delay_forgetting_factor
            )
        return float(total)
