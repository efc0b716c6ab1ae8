"""Shared fixtures: six small SQLite databases and the mini word-vector file.

Databases are built once per session into a temp directory.  Every value
is hand-planted so tests can assert exact denotations computed by
independent oracles (set intersections, group-by-and-count by hand, etc.).
"""

import sqlite3
from pathlib import Path

import pytest

from qdmr2sql import Database, EmbeddingLexicon, load_schema, parse_qdmr

DATA_DIR = Path(__file__).parent / "data"

SHIP_DEATH_SQL = """
CREATE TABLE ship (
    id INTEGER PRIMARY KEY,
    name TEXT,
    ship_type TEXT,
    tonnage INTEGER
);
CREATE TABLE death (
    id INTEGER PRIMARY KEY,
    caused_by_ship_id INTEGER,
    injured INTEGER,
    killed INTEGER,
    FOREIGN KEY (caused_by_ship_id) REFERENCES ship (id)
);
INSERT INTO ship VALUES
    (1, 'Lettice', 'sloop', 400),
    (2, 'Bon Accord', 'brig', 300),
    (3, 'HMS Trinidad', 'frigate', 900),
    (4, 'Mary', 'sloop', 250),
    (5, 'Lettice', 'schooner', 350),
    (6, 'Avalanche', 'clipper', 1200);
INSERT INTO death VALUES
    (1, 3, 12, 5),
    (2, 3, 3, 1),
    (3, 3, 0, 2),
    (4, 3, 7, 0),
    (5, 3, 2, 2),
    (6, 1, 4, 1),
    (7, 1, 1, 0),
    (8, 2, 9, 3),
    (9, 4, 0, 1),
    (10, 5, 6, 2),
    (11, 6, 2, 0),
    (12, 6, NULL, 4);
"""

# ship 3 carries five death records; no other ship exceeds two, whichever
# death column is counted, so the top-1 group is stable for every binding.
SHIP_TOP_NAME = "HMS Trinidad"

GEO_SQL = """
CREATE TABLE state (
    state_name TEXT,
    population INTEGER,
    area INTEGER
);
CREATE TABLE river (
    river_name TEXT,
    length INTEGER,
    traverse TEXT,
    FOREIGN KEY (traverse) REFERENCES state (state_name)
);
INSERT INTO state VALUES
    ('minnesota', 5700000, 86936),
    ('wisconsin', 5900000, 65496),
    ('iowa', 3200000, 56273),
    ('illinois', 12600000, 57914),
    ('missouri', 6100000, 69707),
    ('arkansas', 3000000, 53178),
    ('louisiana', 4600000, 52378),
    ('texas', 29100000, 268596),
    ('montana', 1100000, 147040);
INSERT INTO river VALUES
    ('mississippi', 3734, 'minnesota'),
    ('mississippi', 3734, 'wisconsin'),
    ('mississippi', 3734, 'iowa'),
    ('mississippi', 3734, 'illinois'),
    ('mississippi', 3734, 'missouri'),
    ('mississippi', 3734, 'arkansas'),
    ('mississippi', 3734, 'louisiana'),
    ('rio grande', 3034, 'texas'),
    ('missouri river', 3767, 'montana'),
    ('missouri river', 3767, 'missouri');
"""

MISSISSIPPI_STATES = {
    "minnesota", "wisconsin", "iowa", "illinois",
    "missouri", "arkansas", "louisiana",
}
MISSISSIPPI_POPULATIONS = {
    5700000, 5900000, 3200000, 12600000, 6100000, 3000000, 4600000,
}
LARGEST_STATE_AREA = 268596

ACADEMIC_SQL = """
CREATE TABLE author (
    aid INTEGER PRIMARY KEY,
    name TEXT
);
CREATE TABLE journal (
    jid INTEGER PRIMARY KEY,
    name TEXT
);
CREATE TABLE publication (
    pid INTEGER PRIMARY KEY,
    title TEXT,
    jid INTEGER,
    FOREIGN KEY (jid) REFERENCES journal (jid)
);
CREATE TABLE writes (
    aid INTEGER,
    pid INTEGER,
    FOREIGN KEY (aid) REFERENCES author (aid),
    FOREIGN KEY (pid) REFERENCES publication (pid)
);
INSERT INTO author VALUES
    (1, 'H. V. Jagadish'),
    (2, 'Yunyao Li'),
    (3, 'Divesh Srivastava'),
    (4, 'Cong Yu');
INSERT INTO journal VALUES
    (1, 'PVLDB'),
    (2, 'SIGMOD Record'),
    (3, 'TODS');
INSERT INTO publication VALUES
    (1, 'Querying Probabilistic Data', 1),
    (2, 'Indexing Moving Objects', 1),
    (3, 'Top-k Query Processing', 1),
    (4, 'Provenance in Databases', 1),
    (5, 'Graph Pattern Matching', 1),
    (6, 'Schema Evolution', 1),
    (7, 'Data Cleaning at Scale', 1),
    (8, 'Versioned Storage', 1),
    (9, 'Skyline Queries', 1),
    (10, 'Workload Forecasting', 1),
    (11, 'Adaptive Indexing', 1),
    (12, 'Structured Search', 1),
    (13, 'Schema Matching Survey', 1),
    (14, 'NLIDB Tutorial', 2),
    (15, 'Streaming Joins', 2),
    (16, 'Access Control Models', 3);
INSERT INTO writes VALUES
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    (1, 8), (1, 9), (1, 10), (1, 11), (1, 12), (1, 13), (1, 16),
    (2, 12), (2, 13), (2, 14),
    (3, 15),
    (4, 15);
"""

JAGADISH_TITLES = {
    "Querying Probabilistic Data", "Indexing Moving Objects",
    "Top-k Query Processing", "Provenance in Databases",
    "Graph Pattern Matching", "Schema Evolution", "Data Cleaning at Scale",
    "Versioned Storage", "Skyline Queries", "Workload Forecasting",
    "Adaptive Indexing", "Structured Search", "Schema Matching Survey",
    "Access Control Models",
}
LI_TITLES = {"Structured Search", "Schema Matching Survey", "NLIDB Tutorial"}

VOTING_SQL = """
CREATE TABLE student (
    stuid INTEGER PRIMARY KEY,
    major TEXT
);
CREATE TABLE voting_record (
    stuid INTEGER,
    treasurer_vote INTEGER,
    FOREIGN KEY (stuid) REFERENCES student (stuid),
    FOREIGN KEY (treasurer_vote) REFERENCES student (stuid)
);
INSERT INTO student VALUES
    (1, 'CS'),
    (2, 'History'),
    (3, 'Biology'),
    (4, 'Math'),
    (5, 'Physics');
INSERT INTO voting_record VALUES
    (1, 4),
    (2, 4),
    (3, 5);
"""

VOTER_MAJORS = {"CS", "History", "Biology"}

PRODUCTS_SQL = """
CREATE TABLE products (
    product_id INTEGER PRIMARY KEY,
    product_type_code TEXT,
    product_name TEXT
);
INSERT INTO products VALUES
    (1, 'Food', 'Chocolate Bar'),
    (2, 'Food', 'Sourdough Loaf'),
    (3, 'Food', 'Oat Milk'),
    (4, 'Hardware', 'Claw Hammer'),
    (5, 'Hardware', 'Torque Wrench'),
    (6, 'Clothes', 'Wool Scarf');
"""

DISTINCT_PRODUCT_TYPES = 3

UNIVERSITY_SQL = """
CREATE TABLE university (
    school TEXT,
    affiliation TEXT,
    enrollment INTEGER
);
INSERT INTO university VALUES
    ('North Ridge', 'Public', 20000),
    ('West Lake', 'Public', 20000),
    ('Capital State', 'Public', 35000),
    ('Harbor Tech', 'Public', 12000),
    ('Old Grove', 'Private', 8000),
    ('Saint Anselm', 'Private', 5000);
"""

ENROLLMENT_SUMS = {87000, 13000}

_SCRIPTS = {
    "ship_death": SHIP_DEATH_SQL,
    "geo": GEO_SQL,
    "academic": ACADEMIC_SQL,
    "voting_record": VOTING_SQL,
    "products": PRODUCTS_SQL,
    "university": UNIVERSITY_SQL,
}


def build_db(path: Path, script: str) -> None:
    conn = sqlite3.connect(path)
    try:
        conn.executescript(script)
        conn.commit()
    finally:
        conn.close()


@pytest.fixture(scope="session")
def db_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fixture-dbs")
    for name, script in _SCRIPTS.items():
        build_db(root / f"{name}.sqlite", script)
    return root


def _db_fixture(name):
    @pytest.fixture(scope="session", name=f"{name}_db")
    def fixture(db_dir):
        return db_dir / f"{name}.sqlite"

    return fixture


ship_death_db = _db_fixture("ship_death")
geo_db = _db_fixture("geo")
academic_db = _db_fixture("academic")
voting_record_db = _db_fixture("voting_record")
products_db = _db_fixture("products")
university_db = _db_fixture("university")


@pytest.fixture(scope="session")
def lexicon() -> EmbeddingLexicon:
    return EmbeddingLexicon.load(DATA_DIR / "mini_glove.txt")


@pytest.fixture()
def open_db():
    """Open fixture databases read-only, closing them at test end."""
    handles = []

    def opener(path) -> Database:
        db = Database.open(path)
        handles.append(db)
        return db

    yield opener
    for db in handles:
        db.close()


def schema_of(db: Database):
    return load_schema(db.conn)


class FakeExample:
    """The duck-typed example shape the search loop consumes: a parsed
    ``program`` and an ``answer``."""

    def __init__(self, qdmr: str, answer):
        self.program = parse_qdmr(qdmr)
        self.answer = answer
