"""A process audit: satisfiability first, then anomalies.

Plays the role of a process analyst auditing the loan-approval process:

1. **validate the question bank** against the deployed model — queries
   that no run of the model can match are rejected up front with the
   linter's explanation, before scanning any data; an accepted question
   comes with one run of the model that matches it
   (`PatternProver.spec_witness`; `other` stands for any activity the
   question does not name).  Note the "Reject -> Disburse"
   verdict: the *model* cannot produce it, so any log where it matches
   (see examples/fraud_detection.py) is forged;
2. run the **anomaly rules** over the quarter's log.

Run:  python examples/process_audit.py
"""

from repro.analysis import default_prover
from repro.analytics import loan_rules
from repro.core.lint import Linter, Severity
from repro.core.parser import parse
from repro.workflow import SimulationConfig, WorkflowEngine
from repro.workflow.models import loan_approval_workflow


QUESTION_BANK = [
    "SubmitApplication -> CreditCheck",
    "CreditCheck -> SubmitApplication",       # impossible order
    "AutoApprove & ManualReview",             # exclusive branches
    "RequestDocuments -> ReceiveDocuments -> Approve",
    "Disburse ; Disburse",                    # at most one disbursement
    "Reject -> Disburse",                     # impossible honestly —
                                              # only forged logs match
]


def main() -> None:
    spec = loan_approval_workflow()
    linter = Linter.for_context(spec=spec)

    print("=== 1. static validation of the question bank ===")
    for text in QUESTION_BANK:
        errors = [d for d in linter.lint(text) if d.severity == Severity.ERROR]
        if errors:
            print(f"  REJECT  {text}\n            ({errors[0].message})")
            continue
        log, incident = default_prover().spec_witness(spec, parse(text))
        run = " ".join(
            f"[{r.activity}]" if r.lsn in incident.lsns else r.activity
            for r in log
        )
        print(f"  OK      {text}\n            (a matching run: {run})")

    log = WorkflowEngine(spec).run(SimulationConfig(instances=250, seed=314))
    print(f"\n=== 2. anomaly rules over {len(log.wids)} applications ===")
    print(loan_rules().run(log).format())


if __name__ == "__main__":
    main()
