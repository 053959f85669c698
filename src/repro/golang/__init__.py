"""Go-subset language front end.

This package implements the portion of the Go language that the Dr.Fix
reproduction needs in order to parse, analyse, transform, print, and execute
the racy programs in the corpus:

* :mod:`repro.golang.tokens` / :mod:`repro.golang.lexer` — tokenizer with Go's
  automatic-semicolon-insertion rule and full source positions.
* :mod:`repro.golang.ast_nodes` — AST node dataclasses with source spans.
* :mod:`repro.golang.parser` — recursive-descent parser.
* :mod:`repro.golang.printer` — gofmt-like pretty printer (AST → source).
* :mod:`repro.golang.analysis` — concurrency-construct discovery and Go's
  universe names, used by the skeletonizer and the race-info extractor.
* :mod:`repro.golang.slicing` — per-function binding analysis that tells the
  compiler which accesses need no race instrumentation.

The subset covers: package/import/type/var/const/func declarations, methods,
closures, goroutines, defer, channels (send/receive/select/close), the
``sync`` package primitives (``Mutex``, ``RWMutex``, ``WaitGroup``, ``Map``,
``Once``), ``sync/atomic``, maps, slices, structs, pointers, and the statement
and expression forms used in the paper's listings.
"""

from repro.golang.lexer import Lexer, tokenize
from repro.golang.parser import Parser, parse_file, parse_expr
from repro.golang.printer import print_file, print_node
from repro.golang import ast_nodes as ast

__all__ = [
    "Lexer",
    "tokenize",
    "Parser",
    "parse_file",
    "parse_expr",
    "print_file",
    "print_node",
    "ast",
]
