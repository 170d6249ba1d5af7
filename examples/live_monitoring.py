"""Live monitoring: stream records through rules as the engine emits them.

The paper's related-work section argues warehousing "is not efficient
[for] runtime execution monitoring over a data warehousing approach".
This example shows the direct-log alternative end to end:

1. attach the curated clinic rules to a
   :class:`~repro.analytics.monitor.LiveMonitor`;
2. **stream** a day of traffic record by record — alerts fire at the
   exact record that completes an incident, while instances are still
   running.

Run:  python examples/live_monitoring.py
"""

from repro.analytics import LiveMonitor, clinic_rules
from repro.workflow import SimulationConfig, WorkflowEngine
from repro.workflow.models import clinic_referral_workflow


def main() -> None:
    ruleset = clinic_rules()
    monitor = LiveMonitor(ruleset)

    live = WorkflowEngine(clinic_referral_workflow()).run(
        SimulationConfig(instances=40, seed=200, arrival_stagger=1)
    )
    print(f"streaming {len(live)} live records through "
          f"{len(ruleset)} rules...")
    shown = 0
    for record in live:
        for alert in monitor.observe(record):
            if alert.rule.severity != "info" and shown < 8:
                print("  " + alert.format())
                shown += 1

    print(f"\ntotal alerts: {len(monitor.alerts)}")
    for name, wids in sorted(monitor.offending_instances().items()):
        print(f"  {name:<28} instances {list(wids)[:8]}")


if __name__ == "__main__":
    main()
