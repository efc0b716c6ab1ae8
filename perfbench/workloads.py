"""Seeded workload generators for the corpus benchmark.

Each generator writes the databases, the corpus (JSON Lines) and the
word-vector file of one workload into a fresh directory and returns a
:class:`Workload` describing them.  The program under test later sees only
these files.  Every example carries what the independent oracle needs: the
expected outcome and the answer.

Answers of reachable generated examples come from one hand-written oracle
SQL query per template, run with plain ``sqlite3`` on the generated data.
Unreachable examples get answers that no query over the data can return
(text that occurs in no cell, negative counts and sums, negative ids), so
the search must walk its whole assignment budget.

Nothing here imports the package under test.
"""

from __future__ import annotations

import ast
import json
import math
import random
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# Expected outcomes.  FOUND and UNREACHABLE are the two kinds of generated
# example; the fixture corpus also designs Exhausted and MappingFailed.
FOUND = "Found"
EXHAUSTED = "Exhausted"
MAPPING_FAILED = "MappingFailed"
UNREACHABLE = "unreachable"

# Designed non-Found statuses of tests/data/corpus.jsonl; every other
# example there comes back Found.
FIXTURE_STATUSES = {
    "s7": EXHAUSTED,
    "a8": EXHAUSTED,
    "a9": EXHAUSTED,
    "g9": MAPPING_FAILED,
}


class WorkloadError(RuntimeError):
    """The inputs a workload is built from are missing or malformed."""


@dataclass
class Expectation:
    """What the oracle knows of one example.

    ``expect`` is FOUND, EXHAUSTED, MAPPING_FAILED or UNREACHABLE.  When
    ``designed`` is set the status must be exactly ``expect`` (the fixture
    corpus); a generated reachable example that is not found only lowers
    the ``found`` count.
    """

    expect: str
    answer: object
    db_path: str
    group: str  # examples of one group do the same work
    designed: bool = False


@dataclass
class Workload:
    name: str
    db_dir: str
    corpus: str
    lexicon: str
    tail_percentile: int
    min_passes: int
    expected: Dict[str, Expectation] = field(default_factory=dict)

    def worker_spec(self) -> dict:
        """The part of the workload the program-only process may see."""
        return {
            "db_dir": self.db_dir,
            "corpus": self.corpus,
            "lexicon": self.lexicon,
            "min_passes": self.min_passes,
        }


def _write_corpus(path: Path, records: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _oracle_rows(conn: sqlite3.Connection, sql: str, params=()) -> list:
    return [list(row) for row in conn.execute(sql, params)]


# --- fixture -----------------------------------------------------------------


def fixture_scripts(repo: Path) -> Dict[str, str]:
    """The database scripts of ``tests/conftest.py``, read without importing it.

    The module's ``_SCRIPTS`` dict maps database ids to module-level string
    constants; both are recovered from the syntax tree.
    """
    path = repo / "tests" / "conftest.py"
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError) as exc:
        raise WorkloadError(f"cannot read {path}: {exc}") from exc
    constants: Dict[str, str] = {}
    scripts: Optional[Dict[str, str]] = None
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            constants[target.id] = value.value
        elif target.id == "_SCRIPTS" and isinstance(value, ast.Dict):
            scripts = {}
            for key, ref in zip(value.keys, value.values):
                if not (isinstance(key, ast.Constant) and isinstance(ref, ast.Name)):
                    raise WorkloadError(f"{path}: unexpected _SCRIPTS entry")
                if ref.id not in constants:
                    raise WorkloadError(f"{path}: {ref.id} is not a string constant")
                scripts[key.value] = constants[ref.id]
    if not scripts:
        raise WorkloadError(f"{path}: no _SCRIPTS dict of SQL scripts")
    return scripts


def fixture_corpus(repo: Path) -> List[dict]:
    path = repo / "tests" / "data" / "corpus.jsonl"
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise WorkloadError(f"cannot read {path}: {exc}") from exc
    return [json.loads(line) for line in lines if line.strip()]


def _build_db(path: Path, script: str) -> None:
    conn = sqlite3.connect(path)
    try:
        conn.executescript(script)
        conn.commit()
    finally:
        conn.close()


FIXTURE_REPS = 40


def build_fixture(repo: Path, out: Path, seed: int) -> Workload:
    """``tests/data/corpus.jsonl`` repeated :data:`FIXTURE_REPS` times as one corpus.

    The seed shuffles the example order inside each repetition; ids get a
    ``.r<k>`` suffix so every example stays distinguishable.
    """
    rng = random.Random(seed)
    scripts = fixture_scripts(repo)
    records = fixture_corpus(repo)
    db_dir = out / "dbs"
    db_dir.mkdir()
    db_ids = sorted({r["db_id"] for r in records})
    for db_id in db_ids:
        if db_id not in scripts:
            raise WorkloadError(f"no script for fixture database {db_id!r}")
        _build_db(db_dir / f"{db_id}.sqlite", scripts[db_id])
    missing = set(FIXTURE_STATUSES) - {r["id"] for r in records}
    if missing:
        raise WorkloadError(f"fixture corpus lacks designed examples {sorted(missing)}")

    corpus: List[dict] = []
    expected: Dict[str, Expectation] = {}
    for rep in range(FIXTURE_REPS):
        order = list(records)
        rng.shuffle(order)
        for record in order:
            ex_id = f"{record['id']}.r{rep}"
            corpus.append(dict(record, id=ex_id))
            expected[ex_id] = Expectation(
                expect=FIXTURE_STATUSES.get(record["id"], FOUND),
                answer=record["answer"],
                db_path=str(db_dir / f"{record['db_id']}.sqlite"),
                group=record["id"],
                designed=True,
            )
    corpus_path = out / "corpus.jsonl"
    _write_corpus(corpus_path, corpus)
    lexicon = out / "vectors.txt"
    lexicon.write_bytes((repo / "tests" / "data" / "mini_glove.txt").read_bytes())
    return Workload(
        name="fixture",
        db_dir=str(db_dir),
        corpus=str(corpus_path),
        lexicon=str(lexicon),
        tail_percentile=99,
        min_passes=2,
        expected=expected,
    )


# --- scaled_ship -------------------------------------------------------------

SHIP_DDL = """
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
"""

# One hand-written oracle query per ship decomposition of the fixture corpus.
SHIP_ORACLES = {
    "s1": "SELECT id FROM ship",
    "s2": (
        "SELECT name FROM ship WHERE id = ("
        " SELECT caused_by_ship_id FROM death GROUP BY caused_by_ship_id"
        " ORDER BY COUNT(injured) DESC LIMIT 1)"
    ),
    "s3": "SELECT COUNT(*) FROM ship",
    "s4": "SELECT SUM(tonnage) FROM ship",
    "s5": "SELECT DISTINCT name FROM ship",
    "s6": "SELECT id FROM ship WHERE tonnage > 800",
    "s7": "SELECT COUNT(*) FROM ship",
    "s8": "SELECT SUM(killed) FROM death",
}

_SHIP_WORDS_A = (
    "Amber Azure Bold Brave Cobalt Crimson Dawn Dusk Ember Fair Gallant "
    "Golden Grey Iron Ivory Jade Keen Lone Merry Noble Onyx Proud Quiet "
    "Royal Scarlet Silver Steady Swift True Valiant Wild Young"
).split()
_SHIP_WORDS_B = (
    "Albatross Anchor Arrow Badger Beacon Comet Condor Corsair Crest Dolphin "
    "Eagle Falcon Gannet Harrier Heron Horizon Kestrel Lantern Marlin "
    "Meridian Osprey Pelican Petrel Raven Seal Sparrow Starling Tern "
    "Thistle Voyager Wanderer Zephyr"
).split()
_SHIP_TYPES = "barque brigantine carrack cutter galleon ketch lugger yawl".split()


def build_scaled_ship(
    repo: Path, out: Path, seed: int, ships: int = 500
) -> Workload:
    """A ``ship_death`` database with ``ships`` ships and twice as many deaths.

    The fixture's eight ship decompositions run twice: with answers from
    :data:`SHIP_ORACLES` on the generated data (reachable) and with their
    fixture answers, which the generated data cannot produce (unreachable).
    Ship names and types share no word with the fixture's, one ship carries
    a planted, strictly largest share of the deaths, and every count and
    sum over the data is far above the fixture answers.
    """
    if ships < 100:
        raise WorkloadError("scaled_ship needs at least 100 ships")
    rng = random.Random(seed)
    records = [r for r in fixture_corpus(repo) if r["db_id"] == "ship_death"]
    by_id = {r["id"]: r for r in records}
    if set(by_id) != set(SHIP_ORACLES):
        raise WorkloadError(
            f"fixture ship decompositions {sorted(by_id)} do not match the oracles"
        )

    db_dir = out / "dbs"
    db_dir.mkdir()
    db_path = db_dir / "ship_death.sqlite"
    names = [f"{a} {b}" for a in _SHIP_WORDS_A for b in _SHIP_WORDS_B]
    top = rng.randrange(1, ships + 1)
    ship_rows = []
    for ship_id in range(1, ships + 1):
        name = rng.choice(names)
        if ship_id == top:
            name = f"{rng.choice(_SHIP_WORDS_A)} {rng.choice(_SHIP_WORDS_B)} Royal"
        ship_rows.append(
            (ship_id, name, rng.choice(_SHIP_TYPES), rng.randint(100, 2000))
        )
    planted = 40
    others = [i for i in range(1, ships + 1) if i != top]
    owners = [top] * planted + [
        rng.choice(others) for _ in range(2 * ships - planted)
    ]
    rng.shuffle(owners)
    death_rows = [
        (i + 1, owner, rng.randint(0, 15), rng.randint(0, 10))
        for i, owner in enumerate(owners)
    ]
    conn = sqlite3.connect(db_path)
    try:
        conn.executescript(SHIP_DDL)
        conn.executemany("INSERT INTO ship VALUES (?, ?, ?, ?)", ship_rows)
        conn.executemany("INSERT INTO death VALUES (?, ?, ?, ?)", death_rows)
        conn.commit()
        answers = {key: _oracle_rows(conn, sql) for key, sql in SHIP_ORACLES.items()}
    finally:
        conn.close()

    corpus: List[dict] = []
    expected: Dict[str, Expectation] = {}
    for key in sorted(SHIP_ORACLES, key=lambda k: int(k[1:])):
        record = by_id[key]
        for suffix, answer, expect in (
            ("live", answers[key], FOUND),
            ("fixture", record["answer"], UNREACHABLE),
        ):
            ex_id = f"{key}.{suffix}"
            corpus.append(dict(record, id=ex_id, dataset=f"ship-{suffix}", answer=answer))
            expected[ex_id] = Expectation(expect, answer, str(db_path), ex_id)
    corpus_path = out / "corpus.jsonl"
    _write_corpus(corpus_path, corpus)
    lexicon = out / "vectors.txt"
    lexicon.write_bytes((repo / "tests" / "data" / "mini_glove.txt").read_bytes())
    return Workload(
        name="scaled_ship",
        db_dir=str(db_dir),
        corpus=str(corpus_path),
        lexicon=str(lexicon),
        tail_percentile=90,
        min_passes=7,
        expected=expected,
    )


# --- wide_schema -------------------------------------------------------------

# (table, text columns, numeric columns, foreign keys as (column, target)).
# The foreign-key graph is a branching tree under ``region`` plus three
# cross edges (flight -> airport, employee -> city, the enrollment link
# table), the shape of a Spider schema rather than a chain.
WIDE_TABLES: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...], Tuple[Tuple[str, str], ...]], ...] = (
    ("region", ("region_name", "climate_zone"), ("area_km",), ()),
    ("country", ("country_name", "official_language"), ("population",), (("region_id", "region"),)),
    ("city", ("city_name", "mayor_name"), ("population", "elevation"), (("country_id", "country"),)),
    ("airport", ("airport_name", "terminal_label"), ("runway_count",), (("city_id", "city"),)),
    ("airline", ("airline_name", "alliance_group"), ("fleet_size",), (("region_id", "region"),)),
    ("flight", ("flight_code", "aircraft_model"), ("ticket_price", "duration_minutes"),
     (("airline_id", "airline"), ("airport_id", "airport"))),
    ("school", ("school_name", "school_motto"), ("founded_year",), (("city_id", "city"),)),
    ("student", ("full_name", "home_address"), ("age", "grade_average"), (("school_id", "school"),)),
    ("course", ("course_title", "course_level"), ("credit_hours",), (("school_id", "school"),)),
    ("enrollment", ("semester_label",), ("final_score",),
     (("student_id", "student"), ("course_id", "course"))),
    ("stadium", ("stadium_name", "surface_type"), ("capacity",), (("city_id", "city"),)),
    ("company", ("company_name", "industry_sector"), ("revenue", "founded_year"), (("country_id", "country"),)),
    ("department", ("department_name", "floor_label"), ("budget",), (("company_id", "company"),)),
    ("employee", ("full_name", "job_title"), ("salary", "age"),
     (("department_id", "department"), ("city_id", "city"))),
    ("project", ("project_name", "project_status"), ("budget",), (("department_id", "department"),)),
    ("product", ("product_name", "product_category"), ("unit_price", "stock_count"), (("company_id", "company"),)),
    ("review", ("review_title", "critic_name"), ("rating",), (("product_id", "product"),)),
    ("customer", ("customer_name", "email_domain"), ("loyalty_points",), (("city_id", "city"),)),
)

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]

# Reachable templates: decomposition, then the oracle that answers it.  The
# literal placeholders are filled from a row picked at random, so every
# answer is non-empty.
WIDE_TEMPLATES = {
    "w1": (
        "return students; return #1 who are enrolled at a school that is"
        " located somewhere in the city of {city}; return the home address of #2"
    ),
    "w2": (
        "return employees; return #1 who work for any department that belongs"
        " to the company registered as {company}; return the number of #2"
    ),
    "w3": (
        "return companies; return departments of #1; return the number of #2"
        " for each #1; return #1 where #3 is highest"
    ),
    "w4": (
        "return products; return the unit price of #1;"
        " return #1 where #2 is more than {price}"
    ),
    "w5": (
        "return flights; return #1 that are operated by the airline known to"
        " travellers as {airline}; return the ticket price of #2; return the sum of #3"
    ),
    "w6": (
        "return reviews; return #1 that were written about products made by the"
        " company {company} which has its head office in {country};"
        " return the review title of #2"
    ),
}

WIDE_ORACLES = {
    "w1": (
        "SELECT DISTINCT s.home_address FROM student s"
        " JOIN school sc ON s.school_id = sc.id JOIN city c ON sc.city_id = c.id"
        " WHERE c.city_name = :city"
    ),
    "w2": (
        "SELECT COUNT(*) FROM employee e"
        " JOIN department d ON e.department_id = d.id"
        " JOIN company c ON d.company_id = c.id WHERE c.company_name = :company"
    ),
    "w3": (
        "SELECT company_id FROM department GROUP BY company_id"
        " ORDER BY COUNT(*) DESC LIMIT 1"
    ),
    "w4": "SELECT id FROM product WHERE unit_price > :price",
    "w5": (
        "SELECT SUM(f.ticket_price) FROM flight f"
        " JOIN airline a ON f.airline_id = a.id WHERE a.airline_name = :airline"
    ),
    "w6": (
        "SELECT DISTINCT r.review_title FROM review r"
        " JOIN product p ON r.product_id = p.id JOIN company c ON p.company_id = c.id"
        " JOIN country k ON c.country_id = k.id"
        " WHERE c.company_name = :company AND k.country_name = :country"
    ),
}

# Literal bindings: one row drawn at random per example decides them.  The
# price threshold is the tenth highest price, so the answer size does not
# vary with the seed.
_WIDE_BINDINGS = {
    "w1": (
        "SELECT c.city_name AS city FROM student s"
        " JOIN school sc ON s.school_id = sc.id JOIN city c ON sc.city_id = c.id"
    ),
    "w2": (
        "SELECT c.company_name AS company FROM employee e"
        " JOIN department d ON e.department_id = d.id"
        " JOIN company c ON d.company_id = c.id"
    ),
    "w3": "SELECT 1",
    "w4": "SELECT unit_price AS price FROM product ORDER BY unit_price DESC LIMIT 1 OFFSET 9",
    "w5": "SELECT a.airline_name AS airline FROM flight f JOIN airline a ON f.airline_id = a.id",
    "w6": (
        "SELECT c.company_name AS company, k.country_name AS country FROM review r"
        " JOIN product p ON r.product_id = p.id JOIN company c ON p.company_id = c.id"
        " JOIN country k ON c.country_id = k.id"
    ),
}


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()


def _wide_values(rng: random.Random, count: int, used: set) -> List[str]:
    """``count`` distinct multi-word values, none seen before in ``used``."""
    out: List[str] = []
    while len(out) < count:
        value = " ".join(_word(rng) for _ in range(3))
        if value not in used:
            used.add(value)
            out.append(value)
    return out


def _unit(rng: random.Random, dim: int) -> List[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def _wide_lexicon(
    path: Path, rng: random.Random, dim: int, vocab: int, words: Sequence[str]
) -> None:
    """Word vectors: table names cluster around one direction, ``id`` sits
    on it, every other word points somewhere random.  Filler words pad the
    vocabulary to ``vocab`` entries, as a real embedding file would."""
    entities = {t for t, _, _, _ in WIDE_TABLES}
    centre = _unit(rng, dim)
    vocabulary = list(dict.fromkeys(words))
    seen = set(vocabulary)
    while len(vocabulary) < vocab:
        filler = _word(rng).lower()
        if filler not in seen:
            seen.add(filler)
            vocabulary.append(filler)
    with open(path, "w", encoding="utf-8") as fh:
        for word in vocabulary:
            noise = _unit(rng, dim)
            stem = word[:-3] + "y" if word.endswith("ies") else word.rstrip("s")
            if word == "id":
                vec = [c + 0.3 * r for c, r in zip(centre, noise)]
            elif word in entities or stem in entities:
                vec = [c + r for c, r in zip(centre, noise)]
            else:
                vec = noise
            fh.write(word + " " + " ".join(f"{x:.5f}" for x in vec) + "\n")


WIDE_ROWS = 30
VECTOR_WIDTH = 300
VOCABULARY = 3000


def build_wide_schema(repo: Path, out: Path, seed: int) -> Workload:
    """A Spider-like database of 18 tables with :data:`WIDE_ROWS` rows each.

    Each of the six templates runs once reachable (answer from
    :data:`WIDE_ORACLES`) and once unreachable (an answer the data cannot
    produce).  The word-vector file has :data:`VOCABULARY` words of width
    :data:`VECTOR_WIDTH`.
    """
    rows = WIDE_ROWS
    rng = random.Random(seed)
    db_dir = out / "dbs"
    db_dir.mkdir()
    db_path = db_dir / "wide.sqlite"
    used: set = set()
    conn = sqlite3.connect(db_path)
    try:
        for table, texts, numbers, fks in WIDE_TABLES:
            cols = ["id INTEGER PRIMARY KEY"]
            cols += [f"{c} TEXT" for c in texts]
            cols += [f"{c} INTEGER" for c in numbers]
            cols += [f"{c} INTEGER" for c, _ in fks]
            cols += [f"FOREIGN KEY ({c}) REFERENCES {t} (id)" for c, t in fks]
            conn.execute(f"CREATE TABLE {table} ({', '.join(cols)})")
            n = 2 * rows if table == "enrollment" else rows
            columns = [_wide_values(rng, n, used) for _ in texts]
            # Every numeric column holds the same values in its own order, so
            # the selectivity of a comparison does not vary with the seed.
            for _ in numbers:
                values = [(i + 1) * 1000 // n for i in range(n)]
                rng.shuffle(values)
                columns.append(values)
            for _, target in fks:
                # Every parent gets the same number of children, so join
                # sizes do not vary with the seed; one company owns a
                # strictly largest block of departments.
                parents = list(range(1, rows + 1))
                owners = (parents * (n // rows + 1))[:n]
                if table == "department":
                    top = rng.choice(parents)
                    owners = [top] * 10 + [p for p in owners if p != top][: n - 10]
                rng.shuffle(owners)
                columns.append(owners)
            marks = ", ".join("?" for _ in range(1 + len(columns)))
            conn.executemany(
                f"INSERT INTO {table} VALUES ({marks})",
                [(i + 1, *vals) for i, vals in enumerate(zip(*columns))],
            )
        conn.commit()

        conn.row_factory = sqlite3.Row
        corpus: List[dict] = []
        expected: Dict[str, Expectation] = {}
        unreachable_answers = {
            "w1": lambda: [[v] for v in _wide_values(rng, 3, used)],
            "w2": lambda: -rng.randint(2, 9),
            "w3": lambda: [-1],
            "w4": lambda: [-1, -2],
            "w5": lambda: -rng.randint(100, 999),
            "w6": lambda: _wide_values(rng, 2, used),
        }
        for key, text in WIDE_TEMPLATES.items():
            choices = conn.execute(_WIDE_BINDINGS[key]).fetchall()
            for kind in (FOUND, UNREACHABLE):
                binding = dict(rng.choice(choices))
                if kind == FOUND:
                    for _ in range(100):
                        answer = _oracle_rows(conn, WIDE_ORACLES[key], binding)
                        if answer and answer != [[None]]:
                            break
                        binding = dict(rng.choice(choices))
                    else:
                        raise WorkloadError(f"{key}: no literal gives a non-empty answer")
                    suffix = "live"
                else:
                    answer = unreachable_answers[key]()
                    suffix = "unreachable"
                ex_id = f"{key}.{suffix}"
                qdmr = text.format(**binding)
                corpus.append(
                    {
                        "id": ex_id,
                        "dataset": f"wide-{suffix}",
                        "db_id": "wide",
                        "question": qdmr,
                        "qdmr": qdmr,
                        "answer": answer,
                    }
                )
                expected[ex_id] = Expectation(kind, answer, str(db_path), ex_id)
    finally:
        conn.close()

    corpus_path = out / "corpus.jsonl"
    _write_corpus(corpus_path, corpus)
    words = ["id"]
    for table, texts, numbers, fks in WIDE_TABLES:
        for name in (table, *texts, *numbers, *(c for c, _ in fks)):
            words.extend(name.split("_"))
    for text in WIDE_TEMPLATES.values():
        words.extend(w for w in text.lower().replace(";", " ").split() if w.isalpha())
    words += [w + "s" for w in list(words) if not w.endswith("s")]
    # The vectors do not depend on the seed: they decide which columns an
    # unreachable search walks, and so its cost.
    lexicon = out / "vectors.txt"
    _wide_lexicon(lexicon, random.Random(0), VECTOR_WIDTH, VOCABULARY, words)
    return Workload(
        name="wide_schema",
        db_dir=str(db_dir),
        corpus=str(corpus_path),
        lexicon=str(lexicon),
        tail_percentile=80,
        min_passes=5,
        expected=expected,
    )


GENERATORS = {
    "fixture": build_fixture,
    "scaled_ship": build_scaled_ship,
    "wide_schema": build_wide_schema,
}
