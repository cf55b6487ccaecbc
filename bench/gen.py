"""Seeded input generators for the benchmark workloads.

Everything here is plain Python over the store's JSON-lines format and the
twelve default variable names, so generation does not depend on the code
being measured.  The same ``random.Random`` state always yields the same
inputs, and every generator returns the exact tally a correct reader must
reproduce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

WIRING = {
    "Existence": ("Physical Existence", "People Existence", "Mandatory Registration"),
    "Affiliation": ("Third Party Endorsement", "Membership", "Portal"),
    "Fulfillment": ("Delivery", "Payment Methods", "Community Comment"),
    "Policy": ("Customer Satisfaction", "Privacy", "Warranty"),
}
MODULES = tuple(WIRING)
VARIABLES = tuple(v for module in MODULES for v in WIRING[module])

#: evidence cap and rating scale of the default pipeline config
N_CAP = 100
SCALE = 5.0

BASE_TIMESTAMP = 1_700_000_000
ASSESSMENT_SHARE = 0.05


def merchant_names(count: int) -> list[str]:
    return [f"m{i:05d}" for i in range(count)]


def spelled(rng, name: str) -> str:
    """The name as written, or one of the loose spellings the program accepts."""
    form = rng.randrange(4)
    if form == 1:
        return name.lower()
    if form == 2:
        return name.upper().replace(" ", "_")
    if form == 3:
        return " " + name.replace(" ", "-") + " "
    return name


@dataclass
class Tally:
    """What a correct single pass over a store yields: (r, s) per pair plus
    the latest assessment per pair (later file order wins equal timestamps)."""

    counts: dict[tuple[str, str], list[int]] = field(default_factory=dict)
    assessments: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    lines: int = 0

    def add(self, record: dict) -> None:
        key = (record["merchant"], record["variable"])
        if record["kind"] == "evidence":
            pair = self.counts.setdefault(key, [0, 0])
            pair[0 if record["outcome"] == "positive" else 1] += 1
        else:
            self.assessments[key] = (record["c"], record["t_scaled"])
        self.lines += 1

    def copy(self) -> "Tally":
        return Tally(
            {k: list(v) for k, v in self.counts.items()}, dict(self.assessments), self.lines
        )


def random_record(rng, merchant: str, variable: str, timestamp: int, share: float) -> dict:
    if rng.random() < share:
        return {
            "kind": "assessment", "merchant": merchant, "variable": variable,
            "c": round(rng.random(), 4), "t_scaled": round(rng.uniform(0.0, SCALE), 4),
            "timestamp": timestamp,
        }
    return {
        "kind": "evidence", "merchant": merchant, "variable": variable,
        "outcome": "positive" if rng.random() < 0.6 else "negative", "timestamp": timestamp,
    }


def write_store(path, rng, lines: int, merchants: int) -> Tally:
    """A shuffled log over ``merchants`` x 12 variables, about 5% assessments.

    One evidence record per (merchant, variable) pair comes first in the
    draw, so every merchant resolves all twelve variables; the rest are
    uniform over pairs.  Timestamps rise with file order.
    """
    names = merchant_names(merchants)
    if lines < merchants * len(VARIABLES):
        raise ValueError(f"{lines} lines cannot cover {merchants} merchants x 12 variables")
    pairs = [(m, v) for m in names for v in VARIABLES]
    extra = lines - len(pairs)
    share = min(1.0, ASSESSMENT_SHARE * lines / extra) if extra else 0.0
    drawn = [(m, v, 0.0) for m, v in pairs]
    drawn += [(rng.choice(names), rng.choice(VARIABLES), share) for _ in range(extra)]
    rng.shuffle(drawn)
    tally = Tally()
    with open(path, "w", encoding="utf-8") as fh:
        for i, (m, v, s) in enumerate(drawn):
            record = random_record(rng, m, v, BASE_TIMESTAMP + i, s)
            tally.add(record)
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return tally


@dataclass(frozen=True)
class Merchant:
    """One in-memory scoring input.

    ``sources`` maps canonical variable names to ``("evidence", r, s)``
    with ``r + s <= N`` or ``("assessment", c, t_scaled)``; ``spelling``
    gives the name as the caller writes it.
    """

    name: str
    sources: dict[str, tuple]
    spelling: dict[str, str]
    overrides: dict[str, float]


def make_population(rng, size: int, override_share: float) -> list[Merchant]:
    """Merchants mixing evidence tallies and direct pairs; about
    ``override_share`` pin one module, and half of those omit its variables."""
    population = []
    for name in merchant_names(size):
        overrides: dict[str, float] = {}
        skipped: tuple[str, ...] = ()
        if rng.random() < override_share:
            module = rng.choice(MODULES)
            overrides[module] = round(rng.uniform(0.0, 100.0), 3)
            if rng.random() < 0.5:
                skipped = WIRING[module]
        sources, spelling = {}, {}
        for variable in VARIABLES:
            if variable in skipped:
                continue
            if rng.random() < 0.5:
                total = rng.randint(0, N_CAP)
                r = rng.randint(0, total)
                sources[variable] = ("evidence", r, total - r)
            else:
                sources[variable] = (
                    "assessment", round(rng.random(), 4), round(rng.uniform(0.0, SCALE), 4)
                )
            spelling[variable] = spelled(rng, variable)
        population.append(Merchant(name, sources, spelling, overrides))
    return population


@dataclass(frozen=True)
class Burst:
    """One ingest call (flags or ``--from-file``) for a merchant, then a rescore.

    ``records`` holds the store lines the ingest must append, in order,
    with canonical variable names.
    """

    merchant: str
    records: tuple[dict, ...]
    argv: tuple[str, ...]


#: records per ingest call; fixed, so records per second compares across seeds
BURST_RECORDS = 3


def make_bursts(rng, merchants: int, count: int, first_timestamp: int, batch_dir) -> list[Burst]:
    """Alternate ``--positive/--negative`` ingests with ``--from-file`` batches.

    Batch files are written under ``batch_dir``; merchants are drawn
    uniformly from the population.
    """
    names = merchant_names(merchants)
    bursts = []
    ts = first_timestamp
    for i in range(count):
        merchant = rng.choice(names)
        if i % 2 == 0:
            variable = rng.choice(VARIABLES)
            pos = rng.randint(0, BURST_RECORDS)
            neg = BURST_RECORDS - pos
            records = tuple(
                {"kind": "evidence", "merchant": merchant, "variable": variable,
                 "outcome": outcome, "timestamp": ts}
                for outcome in ["positive"] * pos + ["negative"] * neg
            )
            argv = ("--merchant", merchant, "--variable", spelled(rng, variable),
                    "--positive", str(pos), "--negative", str(neg), "--timestamp", str(ts))
            bursts.append(Burst(merchant, records, argv))
            ts += 1
            continue
        records = []
        for _ in range(BURST_RECORDS):
            records.append(random_record(rng, merchant, rng.choice(VARIABLES), ts, 0.2))
            ts += 1
        path = batch_dir / f"batch{i:04d}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)
        bursts.append(Burst(merchant, tuple(records), ("--from-file", str(path))))
    return bursts
