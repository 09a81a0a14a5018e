"""Adversarial inputs: a crafted universe and sentences with known expected
matches, for the entity-matching tests, and run values whose artifact cells
are hard to write, for the artifact codec tests."""

from dataclasses import fields, replace
from itertools import cycle

import numpy as np

from newsrisk.backtest import EventStudy

ADVERSARIAL_UNIVERSE_ROWS = [
    ["APPLE", "Apple Inc.", "AAPL", "NASDAQ", "Apple Inc.|Apple Incorporated", ""],
    ["CATALYST", "Catalyst Freight Corp", "CATF", "NYSE", "Catalyst Freight Corp", ""],
    ["GENMOT", "General Motion Co", "GM", "NYSE", "General Motion Co", ""],
    ["TELAM", "Telamerica Inc", "T", "NYSE", "Telamerica Inc", ""],
    [
        "GOLDSTONE",
        "Goldstone Partners Group Inc.",
        "GSPG",
        "NYSE",
        "Goldstone Partners Group Inc.",
        "",
    ],
    ["NATGRID", "National Grid Holdings PLC", "NGH", "NYSE", "National Grid Holdings PLC", ""],
    ["AMEXCH", "American Exchange Group", "AXG", "NYSE", "American Exchange Group", ""],
]

_BAIT_WORDS = (
    "apple",
    "catalyst",
    "goldstone",
    "national",
    "grid",
    "telamerica",
    "exchange",
    "motion",
    "freight",
    "partners",
    "gold",
    "general",
    "holdings",
    "american",
    "catalytic",
)

_BAIT_TEMPLATES = (
    "the {w} market looked soft into the close",
    "{w} prices drifted lower for a third week",
    "investors largely ignored the {w} rally",
    "a {w} shortage dominated the commodity desks",
    "no {w} story could lift the tape today",
    "funds rotated out of {w} exposure",
    "the {w} index printed a fresh low",
    "chatter about {w} tariffs faded quickly",
    "retail interest in {w} names dried up",
    "the {w} complex remains oversupplied",
    "margins in the {w} business keep shrinking",
    "every {w} headline was met with selling",
)

_EXTRA_NEGATIVES = (
    # lowercase or mis-cased tickers in prose (ticker matching is case-sensitive)
    "my aapl notes from last spring were useless",
    "the catf logs rotated overnight",
    "a gspg reading outside tolerance",
    "ngh is how the shift nurse signs off",
    "axg was the callsign on the manifest",
    "Aapl looked like a typo in the memo",
    "CatF is a config flag, not a company",
    # short tickers bare (length <= 2 requires the exchange-qualified form)
    "GM crops remain controversial in Europe",
    "the GM of the hotel comped our room",
    "T cells respond within hours",
    "a Model T rolled past the exchange",
    "vitamin T is not a real supplement",
    # malformed exchange qualifiers
    "the pair (NYSE T) lacked a colon",
    "a stray (NYSE; GM) crept into the copy",
    "(NASDAQ:aapl) is lowercase and should not count",
    "(NYSE:CAT) names a ticker nobody listed",
    "(LSE:GM) is the wrong venue entirely",
    "(NASDAQ :) is simply broken markup",
    # company words embedded in longer words
    "the applesauce aisle was restocked",
    "pineapple futures do not exist",
    "a categorical refusal followed",
    "the scattering pattern surprised the lab",
    "gridlock downtown delayed the courier",
    "promotional materials arrived late",
    "incorporated by reference, said the filing",
    "the freighter docked at dawn",
    "telamericana is a different word entirely",
    "partnership accounting is its own art",
    # single surviving words of multi-word names (stripping needs two words)
    "apple pie was great at the diner",
    "the apple harvest came early this year",
    "goldstone amulets sold briskly at the fair",
    "the national conversation moved on",
    "a grid of nine photographs hung in the lobby",
    "telamerica was a brand of luggage once",
    "general chatter filled the hallway",
    "motion carried without objection",
    "the exchange of letters continued for years",
    "freight rates ticked up in March",
)


def adversarial_negatives() -> list[str]:
    """Sentences that must produce zero company matches."""
    sentences = [t.format(w=w) for w in _BAIT_WORDS for t in _BAIT_TEMPLATES]
    sentences.extend(_EXTRA_NEGATIVES)
    return sentences


def adversarial_positives() -> list[tuple[str, frozenset[str]]]:
    """(sentence, expected canonical ids) pairs that must all be recovered."""
    cases: list[tuple[str, frozenset[str]]] = []
    for row in ADVERSARIAL_UNIVERSE_ROWS:
        cid, display, ticker, exchange = row[0], row[1], row[2], row[3]
        expected = frozenset({cid})
        cases.append((f"I am long ({exchange}:{ticker}) into earnings.", expected))
        cases.append((f"Adding to ( {exchange} : {ticker} ) on weakness.", expected))
        cases.append((f"Trimmed ({exchange}: {ticker}) yesterday.", expected))
        cases.append((f"{display} reported after the bell.", expected))
        cases.append((f"{display.upper()} REMAINS A HOLD.", expected))
        cases.append((f"{display.lower()} printed solid numbers.", expected))
        if len(ticker) > 2:
            cases.append((f"Still watching {ticker} for an entry.", expected))
    cases.append(("Goldstone Partners beat estimates.", frozenset({"GOLDSTONE"})))
    cases.append(
        ("Apple    Inc. filed its proxy statement.", frozenset({"APPLE"}))
    )
    cases.append(
        (
            "Both Apple Inc. and (NYSE:GM) traded lower.",
            frozenset({"APPLE", "GENMOT"}),
        )
    )
    return cases


# ---------------------------------------------------------------------------
# Artifact cells
# ---------------------------------------------------------------------------

#: Float cells: signed zero, the smallest subnormal, a float past 2**53, a
#: sum with rounding dust, one that repr writes in exponent form, NaN, None,
#: and numpy scalars.
ADVERSARIAL_FLOATS = (
    -0.0, 5e-324, 1e16, 0.1 + 0.2, 1e-7, float("nan"), None,
    np.float64(0.1), np.float64(-1.5e-300), 2.5,
)
#: Spellings of an id that need quoting, or keep edge spaces or quotes.
_ID_FORMS = ("{},a", '{}"q', "{}\nline", " {}", "{} ", '"{}"', "{}\rcr", "{}")


def adversarial_values(values: dict) -> dict:
    """A run's values with every canonical and article id respelled to need
    quoting (commas, quotes, line breaks, edge spaces), float cells drawn
    from `ADVERSARIAL_FLOATS`, and integer cells as numpy int64 scalars
    (the network weights and the ranks are int64 arrays already).
    Datapoint risk and outcomes stay, so the report encoders still compute;
    `selected` gains an empty id, the lone empty cell of its row."""
    floats = cycle(ADVERSARIAL_FLOATS)
    ids: dict[str, str] = {}

    def respell(cid: str) -> str:
        if cid not in ids:
            ids[cid] = _ID_FORMS[len(ids) % len(_ID_FORMS)].format(cid)
        return ids[cid]

    def scramble(record, keep=(), **changes):
        new = {}
        for f in fields(record):
            value = getattr(record, f.name)
            if f.name in keep or f.name in changes:
                continue
            if isinstance(value, float):
                new[f.name] = next(floats)
            elif isinstance(value, int) and not isinstance(value, bool):
                new[f.name] = np.int64(value)
        return replace(record, **new, **changes)

    def datapoint(dp, dated=True):
        return scramble(
            dp,
            keep=("x_own", "rr_total"),
            canonical_id=respell(dp.canonical_id),
            measurement_date=dp.measurement_date if dated else None,
        )

    def report(r):
        return scramble(
            r, keep=("threshold",),
            rows=tuple(map(scramble, r.rows)),
            average=r.average and scramble(r.average),
        )

    study = values["study"]
    reports = values["reports"]
    return {
        "occurrences": {
            q: [
                replace(
                    o,
                    article_id=respell(o.article_id),
                    companies=frozenset(map(respell, o.companies)),
                )
                for o in occs
            ]
            for q, occs in values["occurrences"].items()
        },
        "networks": {
            q: {kind: scramble(n, nodes=tuple(map(respell, n.nodes))) for kind, n in nets.items()}
            for q, nets in values["networks"].items()
        },
        "tables": [
            replace(
                t,
                ids=np.array([respell(c) for c in t.ids], dtype=object),
                scores=np.array([next(floats) for _ in t.ids], dtype=object),
            )
            for t in values["tables"]
        ],
        "rank_lists": {
            key: [scramble(e, canonical_id=respell(e.canonical_id)) for e in entries]
            for key, entries in values["rank_lists"].items()
        },
        "selected": (*map(respell, values["selected"]), ""),
        "datapoints": [datapoint(dp) for dp in values["datapoints"]],
        "study": EventStudy(
            [datapoint(dp, dated=r % 3 > 0) for r, dp in enumerate(study.datapoints)],
            study.outcomes,
            delay_lo=study.delay_lo,
            delay_hi=study.delay_hi,
        ),
        "reports": replace(
            reports,
            range_reports={k: report(r) for k, r in reports.range_reports.items()},
            comparison=reports.comparison and report(reports.comparison),
            histogram=[scramble(row) for row in reports.histogram],
        ),
    }
