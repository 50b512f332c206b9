"""EMA scheduling, survey flows, and ground-truth resolution.

Scheduling: an eating EMA is due 240 s after its event is detected, a
mood EMA at the start of each local clock hour. One rule dispatches both:
an EMA due less than 3600 s after the participant's last one is suppressed
as ``rate_limited``, and otherwise one due outside the participation window
(start hour inclusive, end hour exclusive, local clock) as
``outside_window``. Both are compared in whole milliseconds of the virtual
clock, the log's resolution, so float error in an hour start cannot move
an EMA across either bound. A suppressed EMA is never retried. Two EMAs
due in one clock hour lie less than 3600 s apart, so an hour carries at
most one: at most one eating EMA (the first event wins), and no mood EMA
in an hour that carried an eating one.

Survey flows walk one question graph, ``_GRAPH``, a table from (stage,
answer) to the next stage. An eating EMA asks for confirmation, then
either the finished/DONE wait and the eating battery (hunger, satiety,
the 16 eating-in-absence-of-hunger items, who-with, occasion type) or the
what-were-you-doing probe; both end with the 8 mood items. A mood EMA
asks the mood items plus "did you eat in the last hour". A pair outside
the table raises InvalidTransition, an out-of-range answer InvalidAnswer.

Ground truth: a confirmed eating EMA is first-person truth for its
reporter. Who-with mentions that resolve to exactly one housemate create
collaborative truth for that housemate; a mention within 900 s of the
previous one (inclusive) joins its record, whose window reaches 15 minutes
either side and takes the housemate's earliest own confirmed event in it.
Ambiguous mentions (several matching housemates) create nothing. Hourly
mood answers corroborate or, when none of the answerer's own events was
detected in the prior hour, flag a missed detection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import ConfigError, InvalidAnswer, InvalidTransition, UnknownHome, check_fields, real
from .events import EatingEvent
from .traceio import ms

EMA_MIN_GAP = 3600.0  # s between any two EMAs to one participant
EATING_EMA_DELAY = 240.0  # s between detection and dispatch
COLLAB_WINDOW = 900.0  # s, the 15-minute collaborative window
HOURLY_LOOKBACK = 3600.0  # s covered by "did you eat in the last hour"


class Role(Enum):
    MOTHER = "mother"
    FATHER = "father"
    SON = "son"
    DAUGHTER = "daughter"
    OTHER_FAMILY = "other_family"
    OTHER = "other"


@dataclass(frozen=True)
class Participant:
    id: str
    home_id: str
    role: Role
    window: tuple[float, float] = (0.0, 24.0)  # local clock hours, start < end

    def __post_init__(self):
        check_fields(self)
        lo, hi = self.window
        if not 0 <= lo < hi <= 24:
            raise ConfigError(f"window must satisfy 0 <= start < end <= 24, got {self.window}")


class SurveyKind(Enum):
    EATING = "eating"
    MOOD = "mood"


@dataclass(frozen=True)
class EmaSurvey:
    id: str
    participant_id: str
    kind: SurveyKind
    trigger: str  # "event:<id>" or "hourly"
    event: EatingEvent | None = None


MOOD_ITEMS = ("happy", "great", "cheerful", "joyful", "upset", "nervous", "stressed", "couldnt_cope")
EAH_ITEM_COUNT = 16

WHO_WITH_OPTIONS = frozenset(
    {
        "nobody",
        "spouse_partner",
        "children",
        "mother",
        "father",
        "sisters",
        "brothers",
        "grandparent",
        "other_family",
        "friends",
        "other_people",
    }
)

NOT_EATING_OPTIONS = frozenset(
    {"using_phone", "smoking", "fixing_hair", "sunscreen_or_lotion", "other"}
)

EATING_TYPES = ("meal", "snack", "drink", "undefined")


# ---------------------------------------------------------------------------
# scheduling


class LocalClock:
    """Maps simulation seconds to the local wall clock."""

    def __init__(self, start_hour: float = 0.0):
        self.start_hour = start_hour

    def in_window(self, participant: Participant, t: float) -> bool:
        lo, hi = participant.window
        day_ms = round(self.start_hour * 3.6e6 + t * 1000) % 86_400_000
        return lo * 3.6e6 <= day_ms < hi * 3.6e6


class SuppressReason(Enum):
    RATE_LIMITED = "rate_limited"
    OUTSIDE_WINDOW = "outside_window"


@dataclass
class ScheduleState:
    last_sent_t: float = -math.inf


@dataclass(frozen=True)
class SendEatingEma:
    at: float


@dataclass(frozen=True)
class SendMoodEma:
    at: float


@dataclass(frozen=True)
class Suppressed:
    reason: SuppressReason


def _dispatch(participant: Participant, at: float, state: ScheduleState, clock: LocalClock, send):
    """``send(at)`` if ``at`` keeps the gap and lies in the window, else the reason it does not."""
    if state.last_sent_t > -math.inf and ms(at) - ms(state.last_sent_t) < ms(EMA_MIN_GAP):
        return Suppressed(SuppressReason.RATE_LIMITED)
    if not clock.in_window(participant, at):
        return Suppressed(SuppressReason.OUTSIDE_WINDOW)
    state.last_sent_t = at
    return send(at)


def on_event_detected(
    participant: Participant,
    event: EatingEvent,
    now: float,
    state: ScheduleState,
    clock: LocalClock,
) -> SendEatingEma | Suppressed:
    """Schedule the eating EMA for a freshly detected event, or suppress it."""
    return _dispatch(participant, now + EATING_EMA_DELAY, state, clock, SendEatingEma)


def hourly_tick(
    participant: Participant,
    hour_start: float,
    state: ScheduleState,
    clock: LocalClock,
) -> SendMoodEma | Suppressed:
    """Send the hourly mood EMA, or suppress it."""
    return _dispatch(participant, hour_start, state, clock, SendMoodEma)


# ---------------------------------------------------------------------------
# survey flow


class Stage(Enum):
    ASK_WERE_YOU_EATING = "ask_were_you_eating"
    ASK_WHAT_DOING = "ask_what_doing"
    ASK_FINISHED = "ask_finished"
    AWAIT_DONE = "await_done"
    ASK_EATING_BATTERY = "ask_eating_battery"
    ASK_MOOD_ITEMS = "ask_mood_items"
    TERMINAL = "terminal"


DONE = "done"  # the DONE button press


@dataclass(frozen=True)
class NotEatingActivity:
    options: frozenset[str]


@dataclass(frozen=True)
class EatingBattery:
    hunger: float  # 0-100, right before eating
    satiety: float  # 0-100, right after
    eah: tuple[int, ...]  # 16 items, 1-4
    who_with: frozenset[str]
    eating_type: str


@dataclass(frozen=True)
class MoodItems:
    items: tuple[int, ...]  # 8 items, 1-4, order per MOOD_ITEMS
    ate_last_hour: bool | None = None  # required on mood EMAs only


@dataclass(frozen=True)
class EmaResponse:
    survey_id: str
    participant_id: str
    kind: SurveyKind
    t: float | None = None  # completion time, filled by the caller
    event_t: float | None = None  # triggering event anchor (eating EMAs)
    eating_confirmed: bool | None = None
    not_eating_activity: NotEatingActivity | None = None
    hunger: float | None = None
    satiety: float | None = None
    eah: tuple[int, ...] | None = None
    who_with: frozenset[str] | None = None
    eating_type: str | None = None
    mood: tuple[int, ...] | None = None
    ate_last_hour: bool | None = None


@dataclass(frozen=True)
class EmaFlowState:
    stage: Stage
    collected: EmaResponse


def new_flow(survey: EmaSurvey) -> EmaFlowState:
    stage = Stage.ASK_WERE_YOU_EATING if survey.kind is SurveyKind.EATING else Stage.ASK_MOOD_ITEMS
    anchor = survey.event.start if survey.event is not None else None
    return EmaFlowState(stage, EmaResponse(survey.id, survey.participant_id, survey.kind, event_t=anchor))


def validate_who_with(who_with: frozenset[str]):
    unknown = who_with - WHO_WITH_OPTIONS
    if unknown:
        raise InvalidAnswer(f"unknown who-with options {sorted(unknown)}")
    if "nobody" in who_with and len(who_with) > 1:
        raise InvalidAnswer("who-with 'nobody' excludes all other options")


def _check_likert(name: str, items: tuple[int, ...], count: int):
    if len(items) != count:
        raise InvalidAnswer(f"{name} takes {count} items, got {len(items)}")
    for v in items:
        if type(v) is not int or not 1 <= v <= 4:
            raise InvalidAnswer(f"{name} items are Likert 1-4, got {v!r}")


def _record_activity(resp: EmaResponse, answer: NotEatingActivity) -> EmaResponse:
    unknown = answer.options - NOT_EATING_OPTIONS
    if unknown:
        raise InvalidAnswer(f"unknown activities {sorted(unknown)}")
    if not answer.options:
        raise InvalidAnswer("select at least one activity")
    return replace(resp, not_eating_activity=answer)


def _record_battery(resp: EmaResponse, answer: EatingBattery) -> EmaResponse:
    for name in ("hunger", "satiety"):
        if not 0 <= real(getattr(answer, name)) <= 100:
            raise InvalidAnswer(f"{name} is on a 0-100 scale, got {getattr(answer, name)}")
    _check_likert("the eating survey", answer.eah, EAH_ITEM_COUNT)
    validate_who_with(answer.who_with)
    if answer.eating_type not in EATING_TYPES:
        raise InvalidAnswer(f"eating type must be one of {EATING_TYPES}, got {answer.eating_type!r}")
    return replace(
        resp,
        hunger=float(answer.hunger),
        satiety=float(answer.satiety),
        eah=tuple(answer.eah),
        who_with=answer.who_with,
        eating_type=answer.eating_type,
    )


def _record_mood(resp: EmaResponse, answer: MoodItems) -> EmaResponse:
    _check_likert("mood", answer.items, len(MOOD_ITEMS))
    if resp.kind is SurveyKind.MOOD and not isinstance(answer.ate_last_hour, bool):
        raise InvalidAnswer("mood EMAs require the ate-last-hour answer")
    if resp.kind is SurveyKind.EATING and answer.ate_last_hour is not None:
        raise InvalidAnswer("eating EMAs do not ask ate-last-hour")
    return replace(resp, mood=tuple(answer.items), ate_last_hour=answer.ate_last_hour)


# the question graph: (stage, answer) -> next stage, where a yes/no or DONE
# answer stands for itself and any other answer for its type
_GRAPH = {
    (Stage.ASK_WERE_YOU_EATING, True): Stage.ASK_FINISHED,
    (Stage.ASK_WERE_YOU_EATING, False): Stage.ASK_WHAT_DOING,
    (Stage.ASK_FINISHED, True): Stage.ASK_EATING_BATTERY,
    (Stage.ASK_FINISHED, False): Stage.AWAIT_DONE,
    (Stage.AWAIT_DONE, DONE): Stage.ASK_EATING_BATTERY,
    (Stage.ASK_WHAT_DOING, NotEatingActivity): Stage.ASK_MOOD_ITEMS,
    (Stage.ASK_EATING_BATTERY, EatingBattery): Stage.ASK_MOOD_ITEMS,
    (Stage.ASK_MOOD_ITEMS, MoodItems): Stage.TERMINAL,
}
_RECORDERS = {NotEatingActivity: _record_activity, EatingBattery: _record_battery, MoodItems: _record_mood}


def flow_step(state: EmaFlowState, answer) -> EmaFlowState:
    """Advance one edge of the question graph; raises InvalidAnswer / InvalidTransition."""
    key = answer if isinstance(answer, bool) or answer == DONE else type(answer)
    nxt = _GRAPH.get((state.stage, key))
    if nxt is None:
        raise InvalidTransition(f"{state.stage.value} does not take {answer!r}")
    if state.stage is Stage.ASK_WERE_YOU_EATING:
        return EmaFlowState(nxt, replace(state.collected, eating_confirmed=answer))
    record = _RECORDERS.get(type(answer))
    return EmaFlowState(nxt, record(state.collected, answer) if record else state.collected)


# ---------------------------------------------------------------------------
# ground truth


class Fact(Enum):
    WAS_EATING = "was_eating"
    WAS_NOT_EATING = "was_not_eating"


@dataclass(frozen=True)
class Provenance:
    first_person: str | None = None  # survey id
    collaborative: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        if self.first_person and self.collaborative:
            return "collaborative+first_person"
        if self.collaborative:
            return "collaborative"
        return "first_person"

    @property
    def sources(self) -> tuple[str, ...]:
        first = (self.first_person,) if self.first_person else ()
        return first + self.collaborative


@dataclass(frozen=True)
class GroundTruthRecord:
    subject_id: str
    window: tuple[float, float]
    fact: Fact
    provenance: Provenance
    missed_detection: bool = False


# who-with mention -> {reporter role: roster roles it may refer to}; nobody,
# grandparent, other_family, friends and other_people never resolve
_PARENTS = (Role.MOTHER, Role.FATHER)
_CHILDREN = (Role.SON, Role.DAUGHTER)
_MENTION_ROLES = {
    "spouse_partner": {Role.MOTHER: (Role.FATHER,), Role.FATHER: (Role.MOTHER,)},
    "children": dict.fromkeys(_PARENTS, _CHILDREN),
    "mother": dict.fromkeys(_CHILDREN, (Role.MOTHER,)),
    "father": dict.fromkeys(_CHILDREN, (Role.FATHER,)),
    "sisters": dict.fromkeys(_CHILDREN, (Role.DAUGHTER,)),
    "brothers": dict.fromkeys(_CHILDREN, (Role.SON,)),
}


def resolve_collaborative_gt(
    responses: list[EmaResponse],
    roster: list[Participant],
) -> list[GroundTruthRecord]:
    """Turn who-with answers into eating ground truth for housemates.

    A mention counts only when exactly one other member of the reporter's
    home can carry it. A subject's mentions chain, in reporter event time,
    while each follows the previous by at most ``COLLAB_WINDOW``; a chain
    makes one record, its window ``COLLAB_WINDOW`` either side (from 0 at
    the earliest). A record whose window covers the subject's own confirmed
    events takes the earliest, by (time, survey id), as merged provenance.
    The result is independent of the order of ``responses``.
    """
    by_id = {p.id: p for p in roster}
    # subject -> {(reporter event time, source survey id)}
    mentions: dict[str, set[tuple[float, str]]] = {}
    confirmed_own: dict[str, list[tuple[float, str]]] = {}
    for resp in responses:
        if resp.kind is not SurveyKind.EATING or resp.eating_confirmed is not True:
            continue
        reporter = by_id.get(resp.participant_id)
        if reporter is None:
            raise UnknownHome(f"reporter {resp.participant_id!r} is not on any roster")
        if resp.event_t is not None:
            confirmed_own.setdefault(reporter.id, []).append((resp.event_t, resp.survey_id))
        if not resp.who_with or resp.event_t is None:
            continue
        validate_who_with(resp.who_with)
        housemates = [p for p in roster if p.home_id == reporter.home_id and p.id != reporter.id]
        for mention in resp.who_with:
            roles = _MENTION_ROLES.get(mention, {}).get(reporter.role, ())
            candidates = [p for p in housemates if p.role in roles]
            if len(candidates) != 1:
                continue  # nobody to name, or ambiguous among several
            mentions.setdefault(candidates[0].id, set()).add((resp.event_t, resp.survey_id))

    records: list[GroundTruthRecord] = []
    for subject_id in sorted(mentions):
        chains: list[list[tuple[float, str]]] = []
        for entry in sorted(mentions[subject_id]):
            if chains and entry[0] - chains[-1][-1][0] <= COLLAB_WINDOW:
                chains[-1].append(entry)
            else:
                chains.append([entry])
        own = sorted(confirmed_own.get(subject_id, ()))
        for chain in chains:
            lo = max(chain[0][0] - COLLAB_WINDOW, 0.0)
            hi = chain[-1][0] + COLLAB_WINDOW
            first = next((survey for t, survey in own if lo <= t <= hi), None)
            sources = tuple(sorted({survey for _, survey in chain}))
            records.append(
                GroundTruthRecord(subject_id, (lo, hi), Fact.WAS_EATING, Provenance(first, sources))
            )
    return records


def first_person_gt(responses: list[EmaResponse]) -> list[GroundTruthRecord]:
    """Direct ground truth from each answered eating EMA."""
    records = []
    for resp in responses:
        if resp.kind is not SurveyKind.EATING or resp.eating_confirmed is None:
            continue
        anchor = resp.event_t if resp.event_t is not None else (resp.t or 0.0)
        fact = Fact.WAS_EATING if resp.eating_confirmed else Fact.WAS_NOT_EATING
        records.append(
            GroundTruthRecord(
                resp.participant_id,
                (anchor, anchor),
                fact,
                Provenance(first_person=resp.survey_id),
            )
        )
    return records


def resolve_hourly_gt(
    mood_responses: list[EmaResponse],
    detected_events: list[EatingEvent],
) -> list[GroundTruthRecord]:
    """Ground truth from the hourly ate-last-hour answers.

    A yes with none of the answerer's own events overlapping the prior hour
    flags a missed detection, and with one corroborates it; a no records
    not-eating for the hour. A window starts no earlier than the run, at 0.
    """
    records = []
    for resp in mood_responses:
        if resp.kind is not SurveyKind.MOOD or resp.ate_last_hour is None or resp.t is None:
            continue
        lo, hi = max(resp.t - HOURLY_LOOKBACK, 0.0), resp.t
        seen = any(
            ev.participant_id == resp.participant_id and ev.end >= lo and ev.start <= hi
            for ev in detected_events
        )
        records.append(
            GroundTruthRecord(
                resp.participant_id,
                (lo, hi),
                Fact.WAS_EATING if resp.ate_last_hour else Fact.WAS_NOT_EATING,
                Provenance(first_person=resp.survey_id),
                missed_detection=resp.ate_last_hour and not seen,
            )
        )
    return records
