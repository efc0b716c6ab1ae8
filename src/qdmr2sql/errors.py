"""Exception hierarchy shared across the package.

Every error raised by this package derives from :class:`Qdmr2SqlError`, so
callers can catch one type at a pipeline boundary.  Subclasses are grouped by
the stage that raises them: decomposition parsing, schema loading, join
planning, SQL construction, and execution.
"""


class Qdmr2SqlError(Exception):
    """Base class for all package errors."""


# --- decomposition parsing ---------------------------------------------------

class QdmrParseError(Qdmr2SqlError):
    """A decomposition string could not be parsed."""


class EmptyProgram(QdmrParseError):
    """The decomposition contained no steps."""


class DanglingReference(QdmrParseError):
    """A step references a step index that does not precede it."""


class MalformedReference(QdmrParseError):
    """A '#' token is not followed by a step number."""


class NonstandardStep(QdmrParseError):
    """A step matches none of the known utterance patterns."""


# --- schema loading ----------------------------------------------------------

class SchemaError(Qdmr2SqlError):
    """A database schema could not be loaded or is unusable."""


class UnreadableDatabase(SchemaError):
    """The database file or schema document cannot be read."""


class NoTables(SchemaError):
    """The schema declares no tables."""


# --- join planning -----------------------------------------------------------

class DisconnectedTables(Qdmr2SqlError):
    """No foreign-key path connects the requested tables."""


# --- SQL construction --------------------------------------------------------

class SqlBuildError(Qdmr2SqlError):
    """A step could not be mapped to a SQL query."""


class UnmappedReference(SqlBuildError):
    """A step references an earlier step that was never mapped."""


class MissingJoin(SqlBuildError):
    """The tables touched by one step cannot be connected by foreign keys."""


class ArityMismatch(SqlBuildError):
    """An operand query does not have the arity its operator requires."""


class UnboundPhrase(SqlBuildError):
    """A step needs a column or literal binding that the assignment lacks."""


# --- execution ---------------------------------------------------------------

class SqlError(Qdmr2SqlError):
    """The database engine rejected a query."""


class ExecutionTimeout(SqlError):
    """A query exceeded its execution deadline."""


# --- corpus handling ---------------------------------------------------------

class CorpusError(Qdmr2SqlError):
    """An input or output file could not be used."""


class FileUnreadable(CorpusError):
    """An input file (examples, word vectors, a database's location) does
    not exist or cannot be read or parsed at all."""


class FileUnwritable(CorpusError):
    """An output file cannot be opened or written."""


class AllLinesInvalid(CorpusError):
    """Every line of the examples file was rejected."""
