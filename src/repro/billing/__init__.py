"""Per-tenant metering and billing for MTS deployments.

The billing layer answers the question the obs layer leaves open: not
*what happened* but *who pays for it*.  It rides the PR 2 telemetry
plumbing -- a metering tap on the simulator (``sim.meter``, beside
``sim.tracer``) that hot-path sites consult behind an ``enabled``
guard, a :class:`~repro.billing.session.MeteringSession` that puts a
:class:`TenantMeter` on its deployment's simulator for one run and
harvests it plus the :class:`~repro.core.accounting.NetworkingMeter`
counters into windowed :class:`~repro.billing.meter.UsageRecord`\\ s,
an attribution engine comparing per-packet exact CPU against the
proportional-share estimate, invoices priced with
:class:`~repro.core.accounting.PricingModel`, and a reconciliation
auditor asserting the metered totals equal the accounting ground truth.

Like ``obs``, the default is off: every simulator starts with the
shared :data:`NULL_METER`, whose ``enabled`` is ``False``, so
un-metered runs pay only a branch per tap site, and a session armed on
one simulator never sees another's traffic.  Heavy machinery
(sessions, audits, reports) lives in submodules this package does not
import -- the harness reaches
:class:`~repro.billing.session.MeteringSession` lazily through the
scenario's :class:`~repro.scenario.context.RunContext` -- so this
package stays safe to import from the dataplane modules.
"""

from __future__ import annotations

from repro.billing.meter import (
    NULL_METER,
    UNATTRIBUTED,
    NullMeter,
    TenantMeter,
    UsageRecord,
)

__all__ = [
    "NULL_METER",
    "UNATTRIBUTED",
    "NullMeter",
    "TenantMeter",
    "UsageRecord",
]
