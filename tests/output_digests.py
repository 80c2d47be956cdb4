"""The sha256 of every analysis command's output over one fixed corpus.

``CORPUS`` is about twenty hand-written archive lines, built without a
random generator. Between them they hold a case-only name pair, a name
holding a comma, a quote, a tab and a line break, a name holding
``& < > "``, Latin, Greek and Cyrillic names beyond ASCII (whose case
folding is the same in Unicode 13-15), a retweet of an original the
archive lacks, a reply, GeoJSON and legacy coordinates, an ISO-8601
stamp, a duplicate id and a malformed line.

Each command of ``COMMANDS`` runs twice over a fresh parse cache, with
``read_archive``'s in-process slot emptied before each run, so its first
read parses and writes the entry and its second rebuilds the Tweets from
it. A third run takes them from the slot. ``DIGESTS`` holds, for each
command, the sha256 of its exit code, stdout, stderr and every file it
wrote, which all three runs must give.
A change that alters an output on purpose prints the new table with

    PYTHONPATH=src python tests/output_digests.py

which exits 1, naming each command, while its runs disagree with
``DIGESTS`` or with each other. It needs only the standard library.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from eventpulse import cli, tweets

ANALYSIS_COMMANDS = [
    ["stats", "{archive}"],
    ["histogram", "{archive}", "{dir}/h.dat"],
    ["top-tweets", "-f", "{archive}"],
    ["top-tweets", "-f", "{archive}", "--format", "csv"],
    ["top-users", "-f", "{archive}"],
    ["top-users", "-f", "{archive}", "--format", "csv"],
    ["top-users", "-f", "{archive}", "--by", "retweets"],
    ["top-users", "-f", "{archive}", "--by", "retweets", "--format", "csv"],
    ["coordinates", "{archive}", "{dir}/c.csv"],
    ["interactions", "{archive}", "{dir}/e.csv", "--communities", "--gexf", "{dir}/g.gexf"],
    ["interactions", "{archive}", "{dir}/e.csv", "--merge-kinds", "--communities",
     "--format", "csv"],
]
# the two interactions shapes above in their other --format, a graph cut
# to its top two users, day buckets west of UTC and hour buckets at the
# largest offset, the platform's counters as scores, and more rows asked
# for than the corpus has candidates
COMMANDS = ANALYSIS_COMMANDS + [
    ["interactions", "{archive}", "{dir}/e.csv", "--communities", "--gexf", "{dir}/g.gexf",
     "--format", "csv"],
    ["interactions", "{archive}", "{dir}/e.csv", "--merge-kinds", "--communities"],
    ["interactions", "{archive}", "{dir}/e.csv", "--top", "2", "--gexf", "{dir}/g.gexf"],
    ["histogram", "{archive}", "{dir}/h.dat", "--granularity", "day", "--tz", "-330"],
    ["histogram", "{archive}", "{dir}/h.dat", "--tz", "840"],
    ["top-tweets", "-f", "{archive}", "--count-source", "embedded"],
    ["top-tweets", "-f", "{archive}", "--count-source", "embedded", "--format", "csv"],
    ["top-tweets", "-f", "{archive}", "-k", "50"],
]

ODD = 'a,b"c\td\ne'  # a comma, a quote, a tab and a line break
XML = 'x&<y>"z'  # what XML must escape


def record(id: int, created_at: str, author: str, text: str, **fields) -> str:
    return json.dumps(
        {"id": id, "created_at": created_at, "user": {"screen_name": author}, "text": text,
         **fields},
        ensure_ascii=False,
    )


def retweet(id: int, author: str, count: int | None = None) -> dict:
    embedded = {"id": id, "user": {"screen_name": author}}
    return embedded if count is None else {**embedded, "retweet_count": count}


def point(first: float, second: float) -> dict:
    return {"type": "Point", "coordinates": [first, second]}


CORPUS = [
    record(1, "Thu Mar 19 10:05:00 +0000 2015", "ane", "Korrika hasi da! #Korrika #Euskara"),
    record(2, "Thu Mar 19 10:20:00 +0000 2015", "Ane", "Kaixo #korrika", retweet_count=3),
    record(3, "Thu Mar 19 10:45:00 +0100 2015", "mikel", "RT @ane: Korrika hasi da!",
           retweeted_status=retweet(1, "ane", 5)),
    record(4, "2015-03-19T11:02:30Z", "jon", "@ane zorionak", in_reply_to_screen_name="ane",
           coordinates=point(-2.67, 43.26)),
    record(5, "Thu Mar 19 11:15:00 +0000 2015", ODD, "bai", geo=point(43.3, -1.98)),
    record(6, "Thu Mar 19 11:40:00 +0000 2015", XML, "RT @kepa: <b>&amp;</b>",
           retweeted_status=retweet(999, "kepa", 2)),
    record(7, "Thu Mar 19 12:00:00 +0000 2015", "José", "RT @Ane: Kaixo #korrika",
           retweeted_status=retweet(2, "Ane", 4)),
    record(8, "Thu Mar 19 12:10:00 +0000 2015", "Σωκράτης", "@Ирина Γειά σου",
           in_reply_to_screen_name="Ирина"),
    record(9, "Thu Mar 19 12:30:00 +0000 2015", "Ирина", "Привет #Корика", retweet_count=1),
    record(10, "Thu Mar 19 13:05:00 +0000 2015", "Iñaki", "RT @kepa: <b>&amp;</b>",
           retweeted_status=retweet(999, "kepa", 3)),
    record(11, "Thu Mar 19 13:20:00 +0000 2015", "mikel", "bai, noski", in_reply_to_screen_name=ODD),
    record(12, "Thu Mar 19 13:45:00 +0000 2015", XML, "@José <3", in_reply_to_screen_name="José"),
    record(13, "Thu Mar 19 14:00:00 +0000 2015", "ane", "RT @x: <b>&amp;</b>",
           retweeted_status=retweet(6, XML, 1)),
    record(14, "Thu Mar 19 14:30:00 +0000 2015", "kepa", "Aurrera!",
           entities={"hashtags": [{"text": "Korrika"}, {"text": "BAI"}]},
           coordinates=point(-1.98, 43.32)),
    record(15, "Thu Mar 19 15:00:00 +0000 2015", "Jon", "@jon kaixo", in_reply_to_screen_name="jon"),
    record(16, "Thu Mar 19 16:10:00 +0000 2015", "Ирина", "RT @Σωκράτης: Γειά σου",
           retweeted_status=retweet(8, "Σωκράτης")),
    record(17, "Fri Mar 20 09:00:00 +0000 2015", "ane", "Bihar arte #korrika"),
    record(18, "Fri Mar 20 09:30:00 +0000 2015", "José", "Hemen",
           coordinates=point(-2.93, 43.26), geo=point(0.0, 0.0)),
    record(3, "Fri Mar 20 10:00:00 +0000 2015", "mikel", "the same id again"),
    '{"id": 19, "created_at": "Fri Mar 20 10:30:00 +0000 2015", "user": ',
    record(20, "Fri Mar 20 11:00:00 +0000 2015", "Ane", "RT @ane: Korrika hasi da!",
           retweeted_status=retweet(1, "ane", 7)),
]

# the committed table; regenerate it as the module docstring says
DIGESTS = {
    "stats {archive}":
        "9206d0c98aced84114d497680d3aea3b00dfe4fd996ad7eb8ffae9026120869e",
    "histogram {archive} {dir}/h.dat":
        "8000f2f8db3a9bc2a8603470e9cdcb6470026517f8d08291a4d2ea11dc0dc4e3",
    "top-tweets -f {archive}":
        "64586c2cef836f2adb34146776a47321e428894d30e2fd9c8b24b6ffe768b8fd",
    "top-tweets -f {archive} --format csv":
        "9dd48d2d141cda2e4446d997858bb1f8b6b19985f9870e4eaae571ea201c8422",
    "top-users -f {archive}":
        "b9a10a6483e6765bf4c4fa852be4645fc0594d76cd57ca4b203da8bf9f1559d8",
    "top-users -f {archive} --format csv":
        "e0a6cea7adaf584c9efd8868d7ab12556aef3137ebc9333bb068212b329a3eb5",
    "top-users -f {archive} --by retweets":
        "ed51b514529f1383aeddde293f58ad763f68c3d11b5a1f373e245832d5ce9971",
    "top-users -f {archive} --by retweets --format csv":
        "b5733b7140cd5b86e2d2fba0e3be02f983dec2193aba9f54a81f90ea349cd15e",
    "coordinates {archive} {dir}/c.csv":
        "ed2cda432dacb35a15cc96cb60b98516183fb4be7e150bcea4bac7a9a069c221",
    "interactions {archive} {dir}/e.csv --communities --gexf {dir}/g.gexf":
        "441eb652f65de6a313bcfbcf5a8c3006c6723db18651aa9ea0b1b4d0d8800d6b",
    "interactions {archive} {dir}/e.csv --merge-kinds --communities --format csv":
        "a52d5bcf69d3a926e560583314ca6bc6bba00a326a4bee889a0e206da95d11ae",
    "interactions {archive} {dir}/e.csv --communities --gexf {dir}/g.gexf --format csv":
        "cdc4f64f91b2d333200f278a9fd28f984f14b49f6419e2f9bce76ab26092cfb8",
    "interactions {archive} {dir}/e.csv --merge-kinds --communities":
        "8a5ad3dd547979cdfb43c5ed7851c5fec7d19895d79b36faa0e12d10e2b5346e",
    "interactions {archive} {dir}/e.csv --top 2 --gexf {dir}/g.gexf":
        "298bc6cfde3b69a12d5c547825205d36ebcfd74fd2ad28fd7c7c956b4ebb570b",
    "histogram {archive} {dir}/h.dat --granularity day --tz -330":
        "3ab8f59a149485d40d55b137ae6d7126705fc0522f26841ac050b849f7f889ca",
    "histogram {archive} {dir}/h.dat --tz 840":
        "37d684fdb20f4675b3ce5a2a7104ea22e5c7920a5efc6f990be6a04453cc6853",
    "top-tweets -f {archive} --count-source embedded":
        "78690e98105d6a791ef213bf25326067e845efa180598b6397a8e54fec1a315d",
    "top-tweets -f {archive} --count-source embedded --format csv":
        "3f34ac601e9e132f4906c7c17e807e8b9aee38bf0fefcf20c641c7d96dae63fc",
    "top-tweets -f {archive} -k 50":
        "89fae867e8e527b4f7c36ce62c6a76575aecdc5a8d8aa4d96bb9dcbb7156f46a",
}


def run_with_stdout(argv: list[str], encoding: str) -> tuple[int, bytes, str]:
    """``cli.run(argv)`` with stdout in ``encoding``: exit code, stdout bytes, stderr text."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding=encoding, write_through=True)
    stderr = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.run(argv)
    return code, stdout.buffer.getvalue(), stderr.getvalue()


def outputs() -> list[Path]:
    """The files in the current directory besides the archive, by name."""
    return sorted(path for path in Path().iterdir() if path.is_file() and path.name != "a.jsonl")


def run_digest(argv: list[str]) -> str:
    """The sha256 of one run in the current directory: exit code, stdout, stderr, every file."""
    for path in outputs():
        path.unlink()
    code, printed, errors = run_with_stdout(argv, "utf-8")
    files = [(path.name, path.read_bytes()) for path in outputs()]
    return hashlib.sha256(repr((code, printed, errors, files)).encode()).hexdigest()


def read_digests(directory: Path) -> dict[str, list[str]]:
    """Each command's run digests, keyed by its shape: parse and entry write, entry load, slot.

    ``directory`` should be empty. The archive, the outputs and the cache
    go in it, and the commands run in it, so stdout names no temp path.
    """
    (directory / "a.jsonl").write_text("".join(line + "\n" for line in CORPUS), "utf-8")
    cache = directory / "cache"
    home, cwd = os.environ.get("XDG_CACHE_HOME"), os.getcwd()
    os.environ["XDG_CACHE_HOME"] = str(cache)
    os.chdir(directory)
    try:
        digests = {}
        for command in COMMANDS:
            shutil.rmtree(cache, ignore_errors=True)
            argv = [arg.format(archive="a.jsonl", dir=".") for arg in command]
            runs = []
            for _run in range(2):
                tweets._last_read = (None, None)  # the read goes to the cache's files
                runs.append(run_digest(argv))
            digests[" ".join(command)] = [*runs, run_digest(argv)]  # from the slot
        return digests
    finally:
        os.chdir(cwd)
        if home is None:
            del os.environ["XDG_CACHE_HOME"]
        else:
            os.environ["XDG_CACHE_HOME"] = home


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reads = read_digests(Path(tmp))
    print("DIGESTS = {")
    for label, runs in reads.items():
        print(f'    "{label}":\n        "{runs[0]}",')
    print("}")
    differ = [
        label for label in {**DIGESTS, **reads}
        if reads.get(label) != [DIGESTS.get(label)] * 3
    ]
    for label in differ:
        print(f"differs from DIGESTS or between runs: {label}", file=sys.stderr)
    sys.exit(1 if differ else 0)
