"""Infinite symbolic sequences: an AP-but-not-EAP counterexample family,
empirical recurrence analysis, and finite automaton / transducer /
homomorphism mappings."""

from .analysis import (
    LemmaCheck,
    RegulatorReport,
    StabilityEntry,
    StabilityReport,
    check_window,
    eap_cut_search,
    min_window,
    recurrence_stability,
    regulator_report,
    rightmost_occurrence,
    verify_alignment_lemma,
    verify_cn_absent,
    verify_pair_containment,
    verify_theorem1,
)
from .errors import (
    AlphabetError,
    ApwordsError,
    BoundsError,
    BudgetError,
    EmptyPatternError,
    FormatError,
    InsufficientDataError,
)
from .generators import (
    CounterexampleFamily,
    load_morphism_rules,
    load_tau_table,
    morphic_source,
    periodic_source,
    tau_from_table,
    thue_morse_source,
)
from .machines import (
    Homomorphism,
    MealyMachine,
    RunTrace,
    Transducer,
    apply_homomorphism,
    decompose_transducer,
    delay_prepend_automaton,
    format_homomorphism,
    format_machine,
    output_infinite_check,
    parse_homomorphism,
    parse_machine,
    run_mealy,
    run_mealy_stream,
    run_transducer,
)
from .sources import InfiniteWordSource, MorphicSource, PeriodicSource
from .words import (
    BINARY,
    Alphabet,
    FiniteWord,
    Segment,
    bar,
    concat,
    format_word,
    occurrences,
    parse_word,
    segment,
)

__version__ = "0.1.0"

# The kernels are numpy code only; numba is not used.
NUMBA_ENABLED = False
