"""Reproduction of *Dr.Fix: Automatically Fixing Data Races at Industry Scale* (PLDI 2025).

Top-level layout:

* :mod:`repro.core`       — the Dr.Fix pipeline (the paper's contribution);
* :mod:`repro.diagnosis`  — race categorization (report → :class:`Diagnosis`)
  and the pluggable fix-pattern registry;
* :mod:`repro.golang`     — Go-subset front end (lexer/parser/AST/printer/analysis);
* :mod:`repro.runtime`    — interpreter + scheduler + happens-before race detector
  (the ``go test -race`` substitute);
* :mod:`repro.embedding`  — hashing embedder + vector store (MiniLM/ChromaDB substitute);
* :mod:`repro.llm`        — fix strategies and the simulated LLM profiles;
* :mod:`repro.corpus`     — synthetic racy-Go corpus generator (the monorepo substitute);
* :mod:`repro.evaluation` — the per-table/figure experiment harness;
* :mod:`repro.service`    — Dr.Fix as a service: async batch serving with
  admission control, a fingerprint result cache, and HTTP/stdio frontends;
* :mod:`repro.cli`        — the ``drfix`` command-line interface.

Quick start::

    from repro.core import DrFix, DrFixConfig, ExampleDatabase
    from repro.corpus.generator import CorpusConfig, CorpusGenerator

    dataset = CorpusGenerator(CorpusConfig().scaled(0.1)).generate()
    config = DrFixConfig(model="gpt-4o")
    database = ExampleDatabase.from_cases(dataset.db_examples, config)
    case = dataset.evaluation[0]
    outcome = DrFix(case.package, config=config, database=database).fix_case(case)
    print(outcome.fixed, outcome.strategy)
"""

__version__ = "1.5.0"

__all__ = ["__version__"]
