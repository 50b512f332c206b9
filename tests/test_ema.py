import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfed import ema
from mfed.ema import (
    EatingBattery,
    EmaResponse,
    EmaSurvey,
    Fact,
    GroundTruthRecord,
    LocalClock,
    MoodItems,
    NotEatingActivity,
    Participant,
    Provenance,
    Role,
    ScheduleState,
    SendEatingEma,
    SendMoodEma,
    Stage,
    Suppressed,
    SuppressReason,
    SurveyKind,
    first_person_gt,
    flow_step,
    hourly_tick,
    new_flow,
    on_event_detected,
    resolve_collaborative_gt,
    resolve_hourly_gt,
)
from mfed.errors import InvalidAnswer, InvalidTransition, UnknownHome
from mfed.events import EatingEvent, GestureCluster, detect_events

CLOCK = LocalClock(start_hour=0.0)


def hm(h, m=0):
    return h * 3600.0 + m * 60.0


def participant(pid="p1", role=Role.MOTHER, window=(6.0, 22.0), home="h1"):
    return Participant(pid, home, role, window)


def event_at(t):
    return detect_events([t, t + 20.0, t + 40.0])[0]


class TestEatingEmaScheduling:
    def test_first_event_in_hour_wins(self):
        p = participant()
        state = ScheduleState()
        first = on_event_detected(p, event_at(hm(12, 15)), hm(12, 15), state, CLOCK)
        assert first == SendEatingEma(hm(12, 19))
        second = on_event_detected(p, event_at(hm(12, 45)), hm(12, 45), state, CLOCK)
        assert second == Suppressed(SuppressReason.RATE_LIMITED)

    def test_outside_window(self):
        p = participant()
        out = on_event_detected(p, event_at(hm(23, 30)), hm(23, 30), ScheduleState(), CLOCK)
        assert out == Suppressed(SuppressReason.OUTSIDE_WINDOW)

    def test_sixty_five_minute_gap_allows(self):
        p = participant()
        state = ScheduleState(last_sent_t=hm(11, 10))
        out = on_event_detected(p, event_at(hm(12, 15)), hm(12, 15), state, CLOCK)
        assert out == SendEatingEma(hm(12, 19))

    def test_dispatch_lands_inside_window(self):
        # event just before the window closes: dispatch at 22:01 is outside
        p = participant()
        out = on_event_detected(p, event_at(hm(21, 57)), hm(21, 57), ScheduleState(), CLOCK)
        assert out == Suppressed(SuppressReason.OUTSIDE_WINDOW)


class TestHourlyTick:
    def test_quiet_hour_sends_mood(self):
        p = participant()
        assert hourly_tick(p, hm(10), ScheduleState(), CLOCK) == SendMoodEma(hm(10))

    def test_hour_with_eating_ema_skips(self):
        p = participant()
        state = ScheduleState()
        on_event_detected(p, event_at(hm(12, 15)), hm(12, 15), state, CLOCK)
        out = hourly_tick(p, hm(12), state, CLOCK)
        assert out == Suppressed(SuppressReason.RATE_LIMITED)

    def test_outside_window_skips(self):
        p = participant()
        assert hourly_tick(p, hm(5), ScheduleState(), CLOCK) == Suppressed(SuppressReason.OUTSIDE_WINDOW)

    def test_rolling_gap_applies_to_mood(self):
        p = participant()
        state = ScheduleState()
        on_event_detected(p, event_at(hm(12, 15)), hm(12, 15), state, CLOCK)
        # eating EMA dispatched 12:19; the 13:00 tick is only 41 min later
        out = hourly_tick(p, hm(13), state, CLOCK)
        assert out == Suppressed(SuppressReason.RATE_LIMITED)
        assert hourly_tick(p, hm(14), state, CLOCK) == SendMoodEma(hm(14))


def random_schedule_run(seed):
    rng = np.random.default_rng(seed)
    p = participant(window=(float(rng.integers(0, 8)), float(rng.integers(16, 25))))
    state = ScheduleState()
    sent = []
    t = 0.0
    next_hour = 0.0
    for _ in range(300):
        t += float(rng.uniform(60.0, 2400.0))
        while next_hour <= t:
            out = hourly_tick(p, next_hour, state, CLOCK)
            if isinstance(out, SendMoodEma):
                sent.append(out.at)
            next_hour += 3600.0
        out = on_event_detected(p, event_at(t), t, state, CLOCK)
        if isinstance(out, SendEatingEma):
            sent.append(out.at)
    return p, sent


def test_rate_limit_property_over_random_sequences():
    for seed in range(40):
        p, sent = random_schedule_run(seed)
        gaps = np.diff(sent)
        assert np.all(gaps >= ema.EMA_MIN_GAP - 1e-9), f"seed {seed}"
        for at in sent:
            assert CLOCK.in_window(p, at), f"seed {seed}"


def _dispatch_steps(rng, start_hour, hours=40):
    """Time-ordered ("hour", t) ticks at local hour starts, placed as
    ``sim.run`` places them, and ("eating", at) dispatch times drawn on, and
    1 s either side of, hour starts and between them; a tie goes either way."""
    first = -(start_hour * 3600.0) % 3600.0
    starts = [first + k * 3600.0 for k in range(hours)]
    steps = [(t, float(rng.random()), "hour") for t in starts]
    for t in starts:
        for offset in (-1.0, 0.0, 1.0):
            if rng.random() < 0.3:
                steps.append((t + offset, float(rng.random()), "eating"))
    for at in rng.uniform(0.0, starts[-1], size=int(rng.integers(hours, 3 * hours))):
        steps.append((float(at), float(rng.random()), "eating"))
    return [(kind, t) for t, _, kind in sorted(steps)]


EVENT = event_at(hm(12))  # the dispatch rules do not read the event


def test_dispatch_equals_gap_and_window_reference():
    # two rules decide every EMA: the 3600 s gap since the last one sent, then
    # the participation window, both in whole milliseconds of the virtual
    # clock; the reference also keeps the clock hours of its eating EMAs, to
    # show that such a record never refuses what the gap allows
    rng = np.random.default_rng(27)
    for run in range(300):
        start_hour = float(rng.choice([0.0, 0.5, 11.5, 11.8, rng.uniform(0.0, 24.0)]))
        clock = LocalClock(start_hour)
        lo = float(rng.choice([0.0, 6.0, 6.5, 11.8, rng.integers(0, 12)]))
        p = participant(window=(lo, float(rng.choice([24.0, 22.0, 20.5, rng.integers(13, 25)]))))
        state, last, eating_hours = ScheduleState(), -np.inf, set()
        for kind, t in _dispatch_steps(rng, start_hour):
            now = t - ema.EATING_EMA_DELAY
            at = now + ema.EATING_EMA_DELAY if kind == "eating" else t
            local_ms = round(start_hour * 3.6e6 + at * 1000)
            hour = local_ms // 3_600_000
            gap_kept = last == -np.inf or round(at * 1000) - round(last * 1000) >= 3_600_000
            if hour in eating_hours:
                assert not gap_kept, (run, kind, t)
            if not gap_kept:
                expected = Suppressed(SuppressReason.RATE_LIMITED)
            elif not lo * 3.6e6 <= local_ms % 86_400_000 < p.window[1] * 3.6e6:
                expected = Suppressed(SuppressReason.OUTSIDE_WINDOW)
            else:
                expected, last = (SendEatingEma if kind == "eating" else SendMoodEma)(at), at
                if kind == "eating":
                    eating_hours.add(hour)
            if kind == "eating":
                assert on_event_detected(p, EVENT, now, state, clock) == expected, (run, t)
            else:  # only the reason of a suppressed mood EMA is free
                out = hourly_tick(p, t, state, clock)
                assert out == expected if isinstance(expected, SendMoodEma) else isinstance(out, Suppressed), (run, t)
            assert state.last_sent_t == last, (run, kind, t)


def eating_survey():
    return EmaSurvey("s1", "p1", SurveyKind.EATING, "event:e1", event=event_at(hm(12, 15)))


def mood_survey():
    return EmaSurvey("s2", "p1", SurveyKind.MOOD, "hourly")


def battery(**kw):
    defaults = dict(
        hunger=40.0,
        satiety=80.0,
        eah=tuple([1] * 16),
        who_with=frozenset({"nobody"}),
        eating_type="meal",
    )
    defaults.update(kw)
    return EatingBattery(**defaults)


MOOD = MoodItems((1, 2, 3, 4, 1, 2, 3, 4))


class TestFlow:
    def test_negative_confirmation_branch(self):
        state = new_flow(eating_survey())
        assert state.stage is Stage.ASK_WERE_YOU_EATING
        state = flow_step(state, False)
        assert state.stage is Stage.ASK_WHAT_DOING
        state = flow_step(state, NotEatingActivity(frozenset({"using_phone"})))
        assert state.stage is Stage.ASK_MOOD_ITEMS
        state = flow_step(state, MOOD)
        assert state.stage is Stage.TERMINAL
        assert state.collected.eating_confirmed is False
        assert state.collected.mood == (1, 2, 3, 4, 1, 2, 3, 4)

    def test_not_finished_waits_for_done(self):
        state = flow_step(new_flow(eating_survey()), True)
        assert state.stage is Stage.ASK_FINISHED
        state = flow_step(state, False)
        assert state.stage is Stage.AWAIT_DONE
        with pytest.raises(InvalidTransition):
            flow_step(state, True)
        state = flow_step(state, ema.DONE)
        assert state.stage is Stage.ASK_EATING_BATTERY
        state = flow_step(state, battery(who_with=frozenset({"children"})))
        state = flow_step(state, MOOD)
        assert state.stage is Stage.TERMINAL
        assert state.collected.who_with == frozenset({"children"})

    def test_hunger_out_of_range(self):
        state = flow_step(flow_step(new_flow(eating_survey()), True), True)
        with pytest.raises(InvalidAnswer):
            flow_step(state, battery(hunger=150.0))

    def test_nobody_excludes_others(self):
        state = flow_step(flow_step(new_flow(eating_survey()), True), True)
        with pytest.raises(InvalidAnswer):
            flow_step(state, battery(who_with=frozenset({"nobody", "mother"})))

    def test_mood_survey_requires_ate_last_hour(self):
        state = new_flow(mood_survey())
        assert state.stage is Stage.ASK_MOOD_ITEMS
        with pytest.raises(InvalidAnswer):
            flow_step(state, MOOD)
        done = flow_step(state, MoodItems(MOOD.items, ate_last_hour=True))
        assert done.stage is Stage.TERMINAL
        assert done.collected.ate_last_hour is True

    def test_eating_survey_rejects_ate_last_hour(self):
        state = flow_step(new_flow(eating_survey()), False)
        state = flow_step(state, NotEatingActivity(frozenset({"other"})))
        with pytest.raises(InvalidAnswer):
            flow_step(state, MoodItems(MOOD.items, ate_last_hour=False))

    def test_terminal_rejects_everything(self):
        state = flow_step(new_flow(mood_survey()), MoodItems(MOOD.items, ate_last_hour=False))
        with pytest.raises(InvalidTransition):
            flow_step(state, True)

    def test_likert_range(self):
        state = new_flow(mood_survey())
        with pytest.raises(InvalidAnswer):
            flow_step(state, MoodItems((0, 2, 3, 4, 1, 2, 3, 4), ate_last_hour=True))


@pytest.mark.parametrize(
    "kind, answer",
    [
        ("mood", MoodItems((True,) * 8, ate_last_hour=False)),
        ("mood", MoodItems((1, 2, 3, True, 1, 2, 3, 4), ate_last_hour=False)),
        ("battery", battery(eah=(True,) * 16)),
        ("battery", battery(hunger=True)),
        ("battery", battery(satiety=False)),
        ("battery", battery(hunger="50")),
        ("battery", battery(satiety=None)),
    ],
    ids=["mood-bools", "mood-one-true", "eah-bools", "hunger-bool", "satiety-bool", "hunger-str", "satiety-none"],
)
def test_bool_or_non_number_is_an_invalid_answer(kind, answer):
    # a bool is no Likert item or 0-100 rating, as in the config checks
    if kind == "mood":
        state = new_flow(mood_survey())
    else:
        state = replace(new_flow(eating_survey()), stage=Stage.ASK_EATING_BATTERY)
    with pytest.raises(InvalidAnswer):
        flow_step(state, answer)


@pytest.mark.parametrize(
    "stage, answer, message",
    [
        (Stage.ASK_MOOD_ITEMS, MoodItems((1, 2, 3), ate_last_hour=True), "mood takes 8 items, got 3"),
        (Stage.ASK_EATING_BATTERY, battery(eah=(1,) * 15), "the eating survey takes 16 items, got 15"),
        (Stage.ASK_WHAT_DOING, NotEatingActivity(frozenset({"napping", "other"})), "unknown activities ['napping']"),
        (Stage.ASK_WHAT_DOING, NotEatingActivity(frozenset()), "select at least one activity"),
        (
            Stage.ASK_EATING_BATTERY,
            battery(eating_type="brunch"),
            "eating type must be one of ('meal', 'snack', 'drink', 'undefined'), got 'brunch'",
        ),
    ],
    ids=["mood-count", "eah-count", "unknown-activity", "no-activity", "unknown-eating-type"],
)
def test_out_of_range_answer_names_its_fault(stage, answer, message):
    survey = mood_survey() if stage is Stage.ASK_MOOD_ITEMS else eating_survey()
    with pytest.raises(InvalidAnswer) as e:
        flow_step(replace(new_flow(survey), stage=stage), answer)
    assert str(e.value) == message


ANSWER_ALPHABET = [
    True,
    False,
    ema.DONE,
    NotEatingActivity(frozenset({"smoking"})),
    battery(),
    MOOD,
    MoodItems(MOOD.items, ate_last_hour=True),
    12,
    "banana",
]


@given(st.lists(st.sampled_from(range(len(ANSWER_ALPHABET))), min_size=1, max_size=8), st.booleans())
@settings(max_examples=300, deadline=None)
def test_random_walks_terminate_or_raise(choices, eating):
    state = new_flow(eating_survey() if eating else mood_survey())
    for c in choices:
        if state.stage is Stage.TERMINAL:
            with pytest.raises(InvalidTransition):
                flow_step(state, ANSWER_ALPHABET[c])
            return
        try:
            state = flow_step(state, ANSWER_ALPHABET[c])
        except (InvalidAnswer, InvalidTransition):
            return
    if state.stage is Stage.TERMINAL:
        r = state.collected
        assert r.mood is not None
        if r.eating_confirmed:
            assert r.who_with is not None and r.eah is not None
        if r.eating_confirmed is False:
            assert r.not_eating_activity is not None


GRAPH_ANSWERS = {
    "yes": True,
    "no": False,
    "done": ema.DONE,
    "activity": NotEatingActivity(frozenset({"smoking", "other"})),
    "battery": battery(hunger=40, who_with=frozenset({"mother", "children"}), eating_type="snack"),
    "mood": MOOD,
    "mood+ate": MoodItems(MOOD.items, ate_last_hour=True),
    "12": 12,
    "banana": "banana",
}
GRAPH_STAGES = {
    "eating?": Stage.ASK_WERE_YOU_EATING,
    "what?": Stage.ASK_WHAT_DOING,
    "finished?": Stage.ASK_FINISHED,
    "wait": Stage.AWAIT_DONE,
    "battery?": Stage.ASK_EATING_BATTERY,
    "mood?": Stage.ASK_MOOD_ITEMS,
    "end": Stage.TERMINAL,
}
# what each answer (column) gives at each stage (row) of an eating and of a mood
# survey: the next stage, "-" for InvalidTransition or "!" for InvalidAnswer
GRAPH_TABLE = """
kind    stage      yes        no      done      activity  battery   mood  mood+ate  12  banana
eating  eating?    finished?  what?   -         -         -         -     -         -   -
eating  what?      -          -       -         mood?     -         -     -         -   -
eating  finished?  battery?   wait    -         -         -         -     -         -   -
eating  wait       -          -       battery?  -         -         -     -         -   -
eating  battery?   -          -       -         -         mood?     -     -         -   -
eating  mood?      -          -       -         -         -         end   !         -   -
eating  end        -          -       -         -         -         -     -         -   -
mood    eating?    finished?  what?   -         -         -         -     -         -   -
mood    what?      -          -       -         mood?     -         -     -         -   -
mood    finished?  battery?   wait    -         -         -         -     -         -   -
mood    wait       -          -       battery?  -         -         -     -         -   -
mood    battery?   -          -       -         -         mood?     -     -         -   -
mood    mood?      -          -       -         -         -         !     end       -   -
mood    end        -          -       -         -         -         -     -         -   -
"""
# (stage, answer) -> the response fields a step records; every other step records nothing
GRAPH_RECORDS = {
    ("eating?", "yes"): {"eating_confirmed": True},
    ("eating?", "no"): {"eating_confirmed": False},
    ("what?", "activity"): {"not_eating_activity": GRAPH_ANSWERS["activity"]},
    ("battery?", "battery"): {
        "hunger": 40.0,
        "satiety": 80.0,
        "eah": (1,) * 16,
        "who_with": frozenset({"mother", "children"}),
        "eating_type": "snack",
    },
    ("mood?", "mood"): {"mood": MOOD.items, "ate_last_hour": None},
    ("mood?", "mood+ate"): {"mood": MOOD.items, "ate_last_hour": True},
}


def test_question_graph_table():
    header, *rows = (line.split() for line in GRAPH_TABLE.strip().splitlines())
    assert header[2:] == list(GRAPH_ANSWERS)
    assert [row[:2] for row in rows] == [[k, s] for k in ("eating", "mood") for s in GRAPH_STAGES]
    for kind, stage, *outcomes in rows:
        start = new_flow(eating_survey() if kind == "eating" else mood_survey())
        start = replace(start, stage=GRAPH_STAGES[stage])
        for (name, answer), outcome in zip(GRAPH_ANSWERS.items(), outcomes, strict=True):
            case = (kind, stage, name)
            if outcome in ("-", "!"):
                error = InvalidTransition if outcome == "-" else InvalidAnswer
                with pytest.raises(error):
                    flow_step(start, answer)
                continue
            after = flow_step(start, answer)
            assert after.stage is GRAPH_STAGES[outcome], case
            recorded = GRAPH_RECORDS.get((stage, name), {})
            assert after.collected == replace(start.collected, **recorded), case
            assert all(type(getattr(after.collected, f)) is type(v) for f, v in recorded.items()), case


def fig12_roster():
    return [
        Participant("A", "h1", Role.MOTHER, (6, 22)),
        Participant("B", "h1", Role.FATHER, (6, 22)),
        Participant("C", "h1", Role.SON, (6, 22)),
        Participant("D", "h1", Role.DAUGHTER, (6, 22)),
    ]


def confirmed(survey_id, pid, event_t, who):
    return EmaResponse(
        survey_id,
        pid,
        SurveyKind.EATING,
        t=event_t + 500.0,
        event_t=event_t,
        eating_confirmed=True,
        who_with=frozenset(who),
    )


class TestCollaborativeGt:
    def test_shared_meal_scenario(self):
        # four family members eat together; B and D answer; A undetected,
        # C a non-respondent: their records come from B and D
        roster = fig12_roster()
        responses = [
            confirmed("sB", "B", hm(12, 10), {"spouse_partner"}),
            confirmed("sD", "D", hm(12, 12), {"mother", "brothers"}),
        ]
        records = resolve_collaborative_gt(responses, roster)
        by_subject = {r.subject_id: r for r in records}
        assert set(by_subject) == {"A", "C"}
        assert by_subject["A"].provenance.collaborative == ("sB", "sD")
        assert by_subject["C"].provenance.collaborative == ("sD",)
        assert all(r.fact is Fact.WAS_EATING for r in records)

    def test_two_children_are_ambiguous(self):
        roster = fig12_roster()
        responses = [confirmed("sA", "A", hm(12), {"children"})]
        assert resolve_collaborative_gt(responses, roster) == []

    def test_two_reporters_coalesce(self):
        roster = fig12_roster()
        responses = [
            confirmed("sC", "C", hm(12, 5), {"mother"}),
            confirmed("sD", "D", hm(12, 12), {"mother"}),
        ]
        records = resolve_collaborative_gt(responses, roster)
        assert len(records) == 1
        assert records[0].subject_id == "A"
        assert records[0].provenance.collaborative == ("sC", "sD")
        assert records[0].window == (hm(12, 5) - 900.0, hm(12, 12) + 900.0)

    def test_far_apart_mentions_stay_separate(self):
        roster = fig12_roster()
        responses = [
            confirmed("sC", "C", hm(12, 0), {"mother"}),
            confirmed("sD", "D", hm(13, 0), {"mother"}),
        ]
        records = resolve_collaborative_gt(responses, roster)
        assert len(records) == 2

    def test_nobody_yields_nothing(self):
        records = resolve_collaborative_gt(
            [confirmed("sB", "B", hm(12), {"nobody"})], fig12_roster()
        )
        assert records == []

    def test_unknown_reporter(self):
        with pytest.raises(UnknownHome):
            resolve_collaborative_gt([confirmed("sX", "X", hm(12), {"mother"})], fig12_roster())

    def test_order_independence(self):
        roster = fig12_roster()
        responses = [
            confirmed("sB", "B", hm(12, 10), {"spouse_partner"}),
            confirmed("sD", "D", hm(12, 12), {"mother", "brothers"}),
            confirmed("sC", "C", hm(12, 5), {"mother", "sisters"}),
        ]
        base = resolve_collaborative_gt(responses, roster)
        for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            assert resolve_collaborative_gt([responses[i] for i in perm], roster) == base

    def test_first_person_merge(self):
        roster = fig12_roster()
        responses = [
            confirmed("sA", "A", hm(12, 8), {"nobody"}),  # A confirmed her own event
            confirmed("sC", "C", hm(12, 5), {"mother"}),
        ]
        records = resolve_collaborative_gt(responses, roster)
        assert len(records) == 1
        assert records[0].provenance.kind == "collaborative+first_person"
        assert records[0].provenance.first_person == "sA"

    def test_first_person_merge_takes_the_earliest_own_event_in_any_order(self):
        # both of A's own events fall inside the window B's mention opens
        roster = fig12_roster()
        responses = [
            confirmed("sA1", "A", 100.0, {"nobody"}),
            confirmed("sA2", "A", 200.0, {"nobody"}),
            confirmed("sB", "B", 150.0, {"spouse_partner"}),
        ]
        for perm in itertools.permutations(responses):
            records = resolve_collaborative_gt(list(perm), roster)
            assert [(r.subject_id, r.provenance.first_person) for r in records] == [("A", "sA1")]

    def test_mentions_that_never_resolve(self):
        roster = fig12_roster()
        responses = [confirmed("sB", "B", hm(12), {"friends", "grandparent", "other_people"})]
        assert resolve_collaborative_gt(responses, roster) == []

    # reporter -> {who-with option: the housemate it names} in a home of a
    # mother, a father, a son, a daughter and an other_family member; every
    # option left out names nobody
    NAMED = {
        "mom": {"spouse_partner": "dad"},  # "children" is ambiguous: son or daughter
        "dad": {"spouse_partner": "mom"},
        "son": {"mother": "mom", "father": "dad", "sisters": "daughter"},  # no other brother
        "daughter": {"mother": "mom", "father": "dad", "brothers": "son"},  # no other sister
        "aunt": {},
    }

    @pytest.mark.parametrize("reporter", sorted(NAMED))
    def test_every_role_and_option(self, reporter):
        roles = {"mom": Role.MOTHER, "dad": Role.FATHER, "son": Role.SON, "daughter": Role.DAUGHTER,
                 "aunt": Role.OTHER_FAMILY}
        roster = [Participant(pid, "h1", role) for pid, role in roles.items()]
        named = {}
        for option in sorted(ema.WHO_WITH_OPTIONS):
            records = resolve_collaborative_gt([confirmed("s", reporter, hm(12), {option})], roster)
            assert len(records) <= 1
            if records:
                named[option] = records[0].subject_id
        assert named == self.NAMED[reporter]

    @pytest.mark.parametrize("reporter", ["mom", "dad"])
    def test_children_names_an_only_child(self, reporter):
        roster = [Participant("mom", "h1", Role.MOTHER), Participant("dad", "h1", Role.FATHER),
                  Participant("kid", "h1", Role.DAUGHTER)]
        records = resolve_collaborative_gt([confirmed("s", reporter, hm(12), {"children"})], roster)
        assert [r.subject_id for r in records] == ["kid"]


def mood_response(survey_id, pid, t, ate):
    return EmaResponse(
        survey_id, pid, SurveyKind.MOOD, t=t, ate_last_hour=ate, mood=(1,) * 8
    )


class TestFirstPersonGt:
    def test_point_window_at_the_event_start_for_answered_eating_surveys_only(self):
        event_t = hm(12, 10)
        responses = [
            confirmed("s1", "p1", event_t, {"nobody"}),
            EmaResponse("s2", "p1", SurveyKind.EATING, t=event_t + 600.0, event_t=event_t, eating_confirmed=False),
            mood_response("s3", "p1", hm(13), True),
            EmaResponse("s4", "p1", SurveyKind.EATING, t=event_t + 700.0, event_t=event_t),
        ]
        records = first_person_gt(responses)
        assert [(r.subject_id, r.window, r.fact, r.provenance.first_person) for r in records] == [
            ("p1", (event_t, event_t), Fact.WAS_EATING, "s1"),
            ("p1", (event_t, event_t), Fact.WAS_NOT_EATING, "s2"),
        ]
        assert all(r.provenance.kind == "first_person" and not r.missed_detection for r in records)


class TestHourlyGt:
    def test_missed_detection_flag(self):
        records = resolve_hourly_gt([mood_response("s", "p1", hm(14), True)], [])
        assert len(records) == 1
        assert records[0].fact is Fact.WAS_EATING
        assert records[0].missed_detection

    def test_detected_event_corroborates(self):
        ev = detect_events([hm(13, 30), hm(13, 30) + 20, hm(13, 30) + 40], participant_id="p1")[0]
        records = resolve_hourly_gt([mood_response("s", "p1", hm(14), True)], [ev])
        assert records[0].fact is Fact.WAS_EATING
        assert not records[0].missed_detection

    def test_no_eating_records_negative(self):
        records = resolve_hourly_gt([mood_response("s", "p1", hm(14), False)], [])
        assert records[0].fact is Fact.WAS_NOT_EATING
        assert records[0].window == (hm(13), hm(14))
        assert records[0].missed_detection is False

    def test_other_participants_events_do_not_count(self):
        ev = detect_events([hm(13, 30), hm(13, 30) + 20, hm(13, 30) + 40], participant_id="p2")[0]
        records = resolve_hourly_gt([mood_response("s", "p1", hm(14), True)], [ev])
        assert records[0].missed_detection


# (who-with option, reporter role) -> the roles the option can name
KIN = {
    ("spouse_partner", Role.MOTHER): {Role.FATHER},
    ("spouse_partner", Role.FATHER): {Role.MOTHER},
    ("children", Role.MOTHER): {Role.SON, Role.DAUGHTER},
    ("children", Role.FATHER): {Role.SON, Role.DAUGHTER},
    **{
        (option, child): {role}
        for option, role in (("mother", Role.MOTHER), ("father", Role.FATHER),
                             ("sisters", Role.DAUGHTER), ("brothers", Role.SON))
        for child in (Role.SON, Role.DAUGHTER)
    },
}


def collaborative_reference(responses, roster):
    """Each subject's mentions by a reporter of its own home that name it
    alone, grouped by union-find wherever two lie within 900 s."""
    mentions = {p.id: set() for p in roster}
    own = {p.id: [] for p in roster}
    for r in responses:
        if r.kind is not SurveyKind.EATING or r.eating_confirmed is not True or r.event_t is None:
            continue
        reporter = next(p for p in roster if p.id == r.participant_id)
        own[reporter.id].append((r.event_t, r.survey_id))
        for option in r.who_with or ():
            named = [p for p in roster if p.home_id == reporter.home_id and p.id != reporter.id
                     and p.role in KIN.get((option, reporter.role), ())]
            if len(named) == 1:
                mentions[named[0].id].add((r.event_t, r.survey_id))
    records = []
    for subject in sorted(mentions):
        items = sorted(mentions[subject])
        root = list(range(len(items)))

        def find(i):
            while root[i] != i:
                i = root[i]
            return i

        for i, j in itertools.combinations(range(len(items)), 2):
            if abs(items[j][0] - items[i][0]) <= 900.0:
                root[find(j)] = find(i)
        groups = {}
        for i, item in enumerate(items):
            groups.setdefault(find(i), []).append(item)
        for group in sorted(groups.values()):
            times = [t for t, _ in group]
            lo, hi = max(min(times) - 900.0, 0.0), max(times) + 900.0
            inside = [m for m in own[subject] if lo <= m[0] <= hi]
            first = min(inside)[1] if inside else None
            sources = tuple(sorted({s for _, s in group}))
            records.append(GroundTruthRecord(subject, (lo, hi), Fact.WAS_EATING, Provenance(first, sources)))
    return records


def hourly_reference(responses, events):
    """Each answered ate-last-hour question, checked against every event."""
    records = []
    for r in responses:
        if r.kind is not SurveyKind.MOOD or r.ate_last_hour is None or r.t is None:
            continue
        lo, hi = max(r.t - 3600.0, 0.0), r.t
        seen = any(ev.participant_id == r.participant_id and ev.start <= hi and ev.end >= lo for ev in events)
        fact = Fact.WAS_EATING if r.ate_last_hour else Fact.WAS_NOT_EATING
        records.append(GroundTruthRecord(r.participant_id, (lo, hi), fact, Provenance(first_person=r.survey_id),
                                         missed_detection=r.ate_last_hour and not seen))
    return records


# times 900 s apart, each also shifted by 1 ms: gaps of exactly 900 s and of
# 900.001 s both occur; mood answers also come an hour later
GT_GRID = [i * 900.0 + j * 0.001 for i in range(3) for j in range(2)]
MOOD_GRID = GT_GRID + [t + 3600.0 for t in GT_GRID]
# every role but OTHER, family roles twice: rosters repeat roles often
GT_ROLES = [Role.MOTHER, Role.FATHER, Role.SON, Role.DAUGHTER] * 2 + [Role.OTHER_FAMILY]


@st.composite
def gt_inputs(draw):
    homes = draw(st.sampled_from([("h0",), ("h0", "h1")]))
    roster = [
        Participant(f"p{i}", draw(st.sampled_from(homes)), draw(st.sampled_from(GT_ROLES)))
        for i in range(draw(st.integers(2, 4)))
    ]
    ids = [p.id for p in roster]
    responses = []
    for i in range(draw(st.integers(0, 8))):
        reporter = draw(st.sampled_from(roster))
        t = draw(st.sampled_from(GT_GRID + [None]))
        # any options, plus some that can name a housemate of this reporter
        naming = sorted({option for option, role in KIN if role is reporter.role})
        who = draw(st.frozensets(st.sampled_from(sorted(ema.WHO_WITH_OPTIONS)), max_size=2))
        if naming:
            who |= draw(st.frozensets(st.sampled_from(naming), max_size=2))
        responses.append(EmaResponse(
            f"e{i}", reporter.id, SurveyKind.EATING, t=None if t is None else t + 500.0, event_t=t,
            eating_confirmed=draw(st.sampled_from([True, True, True, False, None])),
            who_with=frozenset({"nobody"}) if "nobody" in who else who or None,
        ))
    for i in range(draw(st.integers(0, 6))):
        t = draw(st.sampled_from(MOOD_GRID + [None]))
        ate = draw(st.sampled_from([True, False, None]))
        responses.append(EmaResponse(f"m{i}", draw(st.sampled_from(ids)), SurveyKind.MOOD, t=t, mood=(1,) * 8,
                                     ate_last_hour=ate))
    responses = draw(st.permutations(responses))
    events = []
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.sampled_from(GT_GRID))
        end = start + draw(st.sampled_from([0.0, 900.0, 1800.0]))
        events.append(EatingEvent((GestureCluster((start, end)),), draw(st.sampled_from(ids + [None]))))
    return roster, responses, events


# a mother mentions her husband twice exactly 900 s apart while a father
# lives in another home, and her own event cannot answer for him
@example((
    [Participant("p0", "h0", Role.MOTHER), Participant("p1", "h0", Role.FATHER), Participant("p2", "h1", Role.FATHER)],
    [confirmed("e0", "p0", 0.0, {"spouse_partner"}), confirmed("e1", "p0", 900.0, {"spouse_partner"}),
     mood_response("m0", "p1", 3600.0, True)],
    [EatingEvent((GestureCluster((0.0, 900.0)),), "p0")],
))
@given(gt_inputs())
@settings(max_examples=400, deadline=None)
def test_resolvers_equal_brute_force_references(inputs):
    roster, responses, events = inputs
    assert resolve_collaborative_gt(responses, roster) == collaborative_reference(responses, roster)
    assert resolve_hourly_gt(responses, events) == hourly_reference(responses, events)
