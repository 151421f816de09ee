"""EIDE: the expressive programming environment for heterogeneous programs.

A program is a :class:`DataflowProgram` of composable :class:`Dataset`
expression trees (:mod:`repro.eide.dataflow`) with structured predicates
(``dataset("db").table("orders").filter(col("age") > 60)``).  SQL text is a
dataset leaf too: ``dataset("db").sql("SELECT ...")`` parses the query into
the same trees when the dataset is built.
"""

from repro.eide.dataflow import (
    DataflowNode,
    DataflowProgram,
    Dataset,
    DatasetSource,
    dataset,
    view_dataset,
)
from repro.eide.expressions import Col, canonicalize, col, lit
from repro.eide.natural_language import compile_natural_language, recognize_intent
from repro.ir.nodes import Param

__all__ = [
    "Param",
    "DataflowProgram",
    "Dataset",
    "DatasetSource",
    "DataflowNode",
    "dataset",
    "view_dataset",
    "col",
    "lit",
    "Col",
    "canonicalize",
    "compile_natural_language",
    "recognize_intent",
]
