"""Experiment modules: one per paper table/figure.

- :mod:`repro.experiments.common` -- the configuration matrices of the
  evaluation (which security levels and core counts appear in each row
  of Fig. 5/6) and repetition/CI helpers.
- :mod:`repro.experiments.fig5_throughput` -- Fig. 5(a,d,g).
- :mod:`repro.experiments.fig5_latency` -- Fig. 5(b,e,h).
- :mod:`repro.experiments.fig5_resources` -- Fig. 5(c,f,i).
- :mod:`repro.experiments.fig6_iperf` -- Fig. 6(a,f,k).
- :mod:`repro.experiments.fig6_apache` -- Fig. 6(b,g,l,d,i,n).
- :mod:`repro.experiments.fig6_memcached` -- Fig. 6(c,h,m,e,j,o).
- :mod:`repro.experiments.table1_survey` -- Table 1.
- :mod:`repro.experiments.vf_table` -- the section 3.2 VF budgets.
- :mod:`repro.experiments.runner` -- the experiment table, run as one
  engine call by ``repro experiments``.
"""

from repro.experiments.common import ConfigPoint, EvalMode, configs_for_mode

__all__ = ["ConfigPoint", "EvalMode", "configs_for_mode"]
