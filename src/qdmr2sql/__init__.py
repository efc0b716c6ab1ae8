"""Weakly supervised synthesis of SQL from question decompositions.

The pipeline turns a natural-language question's step decomposition into
an executable SQL query using only the database and the expected answer
as supervision: parse the decomposition, link its phrases to schema
columns by embedding similarity, infer foreign-key join paths, map each
step to SQL through per-operator rules, and search over candidate
bindings until one executes to the answer.
"""

from .errors import (
    AllLinesInvalid,
    ArityMismatch,
    CorpusError,
    DanglingReference,
    DisconnectedTables,
    EmptyProgram,
    ExecutionTimeout,
    FileUnreadable,
    MalformedReference,
    MissingJoin,
    NonstandardStep,
    NoTables,
    Qdmr2SqlError,
    QdmrParseError,
    SchemaError,
    SqlBuildError,
    SqlError,
    UnboundPhrase,
    UnmappedReference,
    UnreadableDatabase,
)
from .qdmr import (
    OpKind,
    QdmrOperator,
    QdmrProgram,
    QdmrStep,
    parse_qdmr,
    render_program,
    superlative_fn,
)
from .schema import (
    ColumnRef,
    FKEdge,
    SchemaGraph,
    ValueIndex,
    load_schema,
    open_readonly,
)
from .joinpath import JoinPath, join_tables
from .linking import (
    Assignment,
    BindingPlan,
    EmbeddingLexicon,
    LinkCandidate,
    PhraseLinking,
    enumerate_assignments,
    link_program,
    phrase_column_similarity,
    plan_bindings,
    rank_columns,
)
from .sqlgen import (
    AggExpr,
    ArithExpr,
    ColExpr,
    CmpPred,
    InPred,
    JoinPred,
    OrGroup,
    SqlQuery,
    render_sql,
    synthesize,
)
from .executor import (
    Database,
    Denotation,
    answer_denotation,
    denotations_equal,
)
from .search import (
    SearchStatus,
    SynthesisConfig,
    SynthesisOutcome,
    heuristic_aggregate_swap,
    heuristic_distinct,
    heuristic_superlative,
    search,
)
from .corpus import (
    CoverageReport,
    CoverageRow,
    Example,
    Reject,
    emit_training_pairs,
    load_examples,
    resolve_database,
    run_corpus,
)

__version__ = "0.1.0"
