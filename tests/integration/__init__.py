"""End-to-end checks over whole paper experiments (``pytest -m integration``).

Each case runs a full experiment at the paper's settings, so the tier
lives behind the ``integration`` marker, out of the default fast tier;
CI's ``full`` job runs it.
"""
