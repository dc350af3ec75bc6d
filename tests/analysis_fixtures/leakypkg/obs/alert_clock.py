"""DET001 fixture: an alert engine that evaluates on the wall clock.

The real SLO watcher (:mod:`repro.serve.slo`) judges burn rates only
at times its caller injects from a *simulated* clock, so the same run
opens and closes the same alerts at the same instants; sampling ``time.time()``
inside evaluation ties every verdict to the host's wall clock and makes
two reruns disagree about which alerts fired.
"""

import time


def evaluate_alerts(rules: list, values: dict) -> list:
    now = time.time()
    return [
        {"rule": name, "opened_at": now}
        for name, limit in rules
        if values.get(name, 0.0) > limit
    ]
