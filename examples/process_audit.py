"""A process audit: satisfiability first, then anomalies.

Plays the role of a process analyst auditing the loan-approval process:

1. **validate the question bank** against the deployed model — queries
   that can never match are rejected up front with an explanation
   (`repro.workflow.analysis`), before scanning any data.  Note the
   "Reject -> Disburse" verdict: the *model* cannot produce it, so any
   log where it matches (see examples/fraud_detection.py) is forged;
2. run the **anomaly rules** over the quarter's log.

Run:  python examples/process_audit.py
"""

from repro.analytics import loan_rules
from repro.core.parser import parse
from repro.workflow import SimulationConfig, WorkflowEngine, analyze, explain_mismatch, may_match
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
    profile = analyze(spec)

    print("=== 1. static validation of the question bank ===")
    for text in QUESTION_BANK:
        pattern = parse(text)
        if may_match(profile, pattern):
            print(f"  OK      {text}")
        else:
            reason = explain_mismatch(profile, pattern)[0]
            print(f"  REJECT  {text}\n            ({reason})")

    log = WorkflowEngine(spec).run(SimulationConfig(instances=250, seed=314))
    print(f"\n=== 2. anomaly rules over {len(log.wids)} applications ===")
    print(loan_rules().run(log).format())


if __name__ == "__main__":
    main()
