"""Analysis and reporting utilities.

* :mod:`repro.analysis.histograms` — tuning-value histograms (the data
  behind the paper's Fig. 5a–c);
* :mod:`repro.analysis.correlation` — buffer-pair correlation summaries
  (the data behind Fig. 6);
* :mod:`repro.analysis.tables` — Table-I style result rows and their
  text and Markdown rendering (the benchmark harness, campaign reports);
* :mod:`repro.analysis.lint` — the invariant linter behind ``repro lint``.

The package re-exports nothing: importing a submodule loads only that
submodule, so the stdlib-only linter starts without numpy.
"""
