"""The three-valued satisfiability check and the epsilon-halving driver.

`checksat` returns a nonempty subset of {True, False}: a singleton is a
proven verdict for every parameter value in P, while {True, False} means
the current refinement cannot decide.  The driver halves the refinement
parameter until a singleton appears or the iteration budget runs out;
non-robust sentences stay undecided forever, which is the honest answer.
A decided verdict carries a certificate, a positive `Fraction`: no
sentence at a smaller distance gets the opposite verdict.

A universal and an and/or node fold the (verdict, certificate) pairs of
their slabs or sides in order (`_fold`).  The first FALSE slab or `and`
side, or the first TRUE `or` side, decides the node with its own
certificate, and the slabs or sides after it are not run.  Otherwise an
undecided pair leaves the node undecided, and when every pair has the
other verdict, the node carries their least certificate.

Everything here is an `Ival` or a cell of `geometry`, a tuple of
`Ival`s: the parameter box and the quantifier bounds are `Ival`s from
the parser on, and a universal's slabs are the cells of
`grid_cover((box,), ε)`, made one at a time as its fold reads them.
Every environment is a tuple, so each evaluation runs on `p_env + cell`
as it stands.  An existential block is checked on the grid
`grid_cover(bounds, ε)` without visiting all of it.  Blocks of cells are
refuted top-down from the grid's base box: a block whose interval
evaluation excludes a solution is dropped whole (its bound enters the
FALSE separation), and any other block is halved by `halve_block`, the
one split rule of `geometry` on the axis that holds the most cells,
until single plausible cells remain.  A flood across zero
faces from each plausible cell not yet reached, in grid order, finds the
candidate complexes in the grid order of their least plausible cell, so
the work of an iteration follows the cells still in play.  An
overdetermined block (more equations than variables) is undecided as
soon as one cell is plausible, so its search stops there; with no
plausible cell it runs in full.  The separation bounds are compared as
integer pairs, and one `Fraction` is built for a FALSE block.

A block that reads no parameter (no variable bound outside it) carries
its frontier across ε-iterations: the plausible cells of its last pass.
The grid of each ε refines the grid of every larger one (`grid_cover`
counts in powers of two), so the next pass starts from the carried
cells' children on the current grid (`covering_cells`), and a block with
two plausible cells evaluates a handful of cells per iteration, not a
descent from the whole grid.  When that pass finds no plausible cell,
a full pass from the whole grid decides the call, so a FALSE verdict
and its separation are always those of a full pass.  A block that reads
a parameter sees a new slice at every call and is searched from the
whole grid each time.

One miniscoping rule places each universal.  Over a nonempty bound,
which every bound is, forall v . A is A when A does not read v,
forall v . (A and B) is (forall v . A) and (forall v . B), and
forall v . (A or B) is A or forall v . B when A does not read v; the
atoms, hence the perturbations, are the same.  So a universal goes down
through every `and` to its sides, and at an `or` or a block (`_under`)
a side that does not read v runs at one point of v's bound, one slab at
every ε, before the sides that read v run under one universal over the
whole bound.  A universal over an `and` therefore folds side by side,
not slab by slab, and a FALSE one carries its first FALSE side's
certificate.  A side that reads no variable of the universals above it
but sits below an `and` below an `or` that reads one stays under the
universal and runs at every slab.

A sentence is compiled once per `quasi_decide` or `checksat` call into a
tree of checks `(p_env, it) -> (verdict, certificate)` that holds each
block's tapes, compiled over all the parameters and bound variables
above it, so every node runs on `p_env` as it is given, every universal
slab and every iteration runs the same tree, and nothing reads the
formula again.  Its nodes are `functools.partial`s, so a call through
the tree adds no frame of its own.  The iteration's `IterationRecord`
`it` is the one context of every check: the driver halves ε on an
integer pair and builds each record with its one `Fraction` ε, the grid
width, and its precision p = `prec_for(ε)`, and every check reads both
there and adds its counts to it.  The precision ties the transcendental
slack 2^-p to ε² (p = 2k + 1 at iteration k): at a tangency a cell is
unrefuted within about √slack of the touching point, so slack ε/8 would
leave a band of about 1/√ε cells (`corpus/sin_one` would evaluate 1,549
cells at budget 20), and slack ε²/8 leaves O(1) cells (59 cells).  That
compile walk is the only walk of the formula: it also finds the free
variables, read off each block's tapes, and checks the solvable
fragment, whose violations `validate_class_b` reports on their own.
The refutation, the face walk and the degree (at the slice centre, as
degenerate parameter intervals) run on the same tapes, and each takes
the equation that certifies a box from `certify`.  A division or
sqrt that the parser admitted at precision 30 may leave its domain on a
box at a lower precision (DomainError); that box then decides nothing.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from collections.abc import Callable, Iterable, Sequence

from .evaluation import Cert, Evaluator, Ival, certify, compile_term, positive_lower_bound
from .formulas import And, Atom, Eq, ForAll, Formula, Geq, Or
from .geometry import Cell, Grid, covering_cells, faces_around, grid_cover, halve_block
from .intervals import DomainError, rat
from .degree import degree
from .record import Frozen, Record, init_field
from . import terms as T

TriValue = frozenset
TRI_T: TriValue = frozenset((True,))
TRI_F: TriValue = frozenset((False,))
TRI_TF: TriValue = frozenset((True, False))


def prec_for(r: Fraction) -> int:
    """The least p >= 1 with transcendental slack 2**-p <= min(r, r**2)/8,
    that is with num << p >= 8 * den for min(r, r**2) = num/den.

    At a tangency f is about -c*d**2 at distance d from the touching
    point, so no cell within sqrt(slack/c) of it can be refuted: slack
    tied to r leaves a band of about 1/sqrt(r) cells, slack tied to r**2
    a band of O(1) cells.  The precision is 3 at r = 1 and 2k + 3 at
    r = 2**-k, so 2k + 1 at iteration k; an r > 1 keeps the slack r/8."""
    num, den = r.numerator, r.denominator
    if num < den:
        num, den = num * num, den * den
    eight_den = 8 * den
    p = max(1, eight_den.bit_length() - num.bit_length())
    return p if num << p >= eight_den else p + 1


class IterationRecord(Record):
    """What one epsilon-iteration did, and the context that every check of
    the iteration reads: the grid width `eps` and the precision.  The
    JSON trace of the CLI prints the fields in this order."""
    __slots__ = _fields = (
        "iteration", "eps", "result", "complexes",
        "precision",  # p of the interval evaluations
        # grid blocks and cells given the refutation test: those of the
        # pass from the carried frontier and, when it finds no plausible
        # cell, those of the full pass after it
        "cells_evaluated",
        # single cells the refutation test left standing; the test of an
        # overdetermined block (more equations than variables) stops at
        # the first one
        "cells_plausible",
        "faces_evaluated",  # cell faces given the zero-face test
        "zero_faces",  # tested faces that joined two cells or doomed one
        "degree_subdivisions",  # DegreeResult.subdivisions, over decided degrees
        "degrees",
    )

    def __init__(
        self, iteration: int, eps: Fraction, result: TriValue, complexes: int = 0,
        precision: int = 0, cells_evaluated: int = 0, cells_plausible: int = 0,
        faces_evaluated: int = 0, zero_faces: int = 0, degree_subdivisions: int = 0,
        degrees: list[int | None] | None = None,
    ) -> None:
        self.iteration, self.eps, self.result = iteration, eps, result
        self.complexes, self.precision = complexes, precision
        self.cells_evaluated, self.cells_plausible = cells_evaluated, cells_plausible
        self.faces_evaluated, self.zero_faces = faces_evaluated, zero_faces
        self.degree_subdivisions = degree_subdivisions
        self.degrees = [] if degrees is None else degrees


class Verdict(Record):
    __slots__ = _fields = ("outcome", "iterations", "final_eps", "certificate", "trace")

    def __init__(
        self, outcome: str, iterations: int, final_eps: Fraction,
        certificate: Fraction | None, trace: list[IterationRecord],
    ) -> None:
        self.outcome = outcome  # "TRUE" | "FALSE" | "UNKNOWN"
        self.iterations, self.final_eps = iterations, final_eps
        self.certificate, self.trace = certificate, trace


# a compiled sentence: (p_env, it) -> (verdict, certificate), on the grid
# width it.eps and the precision it.precision of the iteration record it
Check = Callable[[tuple[Ival, ...], IterationRecord], tuple[TriValue, Fraction | None]]


def _compile(s: Formula, names: tuple[str, ...], violations: list[str],
             univ: tuple[tuple[str, Ival], ...] = ()) -> tuple[frozenset[str], Check | None]:
    """The free variables of s and its tree of checks, in one walk:
    `names` holds the parameter names, then the variables bound above s,
    in order, and each way s leaves the solvable fragment is appended to
    `violations`, in walk order.  Free variables are made bottom-up.
    `univ` holds the (variable, bound) pairs of the universals directly
    above s, the last of `names`, outermost first: a universal appends
    its pair and returns its body's check, an `and` hands them to each
    side (forall v . (A and B) is (forall v . A) and (forall v . B)), and
    an `or` or a block builds its universals in `_under`.  A chain of one
    connective is gathered by `_chain` into one node, whose free
    variables are the union of its sides'.  A block's conjunction is
    gathered by `_chain` too and split once into its equation and
    inequality terms, and each term is compiled once, over `names` and
    the block's variables, so a run reads neither the formula nor the
    names.  The block's free variables are the names its tapes read
    (`reads`) less its own variables: a term is walked by
    `terms.free_vars` only where no tape is built.
    The check is None when a violation has been found or a free variable
    is not in `names`; the caller then raises before anything runs."""
    if isinstance(s, ForAll):
        var = s.var
        if var in names:
            violations.append(f"variable {var!r} shadows an outer binding")
        free, check = _compile(s.body, names + (var,), violations, univ + ((var, s.bound),))
        return free - {var}, check
    if isinstance(s, (And, Or)):
        is_and = isinstance(s, And)
        sides = [_compile(f, names, violations, univ if is_and else ())
                 for f in _chain(s, s.__class__)]
        free, checks = frozenset().union(*(free for free, _ in sides)), [c for _, c in sides]
        if None in checks:
            return free, None
        return free, partial(_combine, checks, TRI_F) if is_and else _under(univ, sides)
    if isinstance(s, Atom):  # a ground atom: a block without variables
        block_vars, bounds, atoms = (), (), [s]
    else:
        block_vars, bounds, atoms = s.vars, s.bounds, _chain(s.body, And)
        clash = set(block_vars).intersection(names)
        if clash:
            violations.append(f"variable {sorted(clash)[0]!r} shadows an outer binding")
        if not all(isinstance(a, Atom) for a in atoms):
            violations.append(
                "exists body must be a conjunction of equations and inequalities")
            free, _ = _compile(s.body, names + block_vars, violations)
            return free.difference(block_vars), None
    eqs = [a.term for a in atoms if isinstance(a, Eq)]
    ineqs = [a.term for a in atoms if isinstance(a, Geq)]
    n, m = len(eqs), len(block_vars)
    if 0 < n < m:
        violations.append(
            f"exists block has {n} equation(s) for {m} variable(s); need n >= m or n = 0")
    if not violations:
        try:
            fs, gs = ([compile_term(t, names + block_vars) for t in terms]
                      for terms in (eqs, ineqs))
        except KeyError:  # a free variable that is not in `names`
            pass
        else:
            free = frozenset().union(*(f.reads for f in fs + gs)).difference(block_vars)
            # a block that reads no parameter is the same block at every
            # call, so it carries its frontier from one to the next
            return free, _under(univ, [(free, partial(_soei, bounds, fs, gs,
                                                      None if free else []))])
    return frozenset().union(*(T.free_vars(a.term) for a in atoms)).difference(block_vars), None


def _chain(f: Formula, cls: type) -> list[Formula]:
    """The sides of the chain of `cls` nodes at f, left to right, from an
    explicit stack: [f] when f is not a `cls`."""
    sides, stack = [], [f]
    while stack:
        f = stack.pop()
        if f.__class__ is cls:
            stack += (f.right, f.left)
        else:
            sides.append(f)
    return sides


def _under(univ: tuple[tuple[str, Ival], ...],
           sides: list[tuple[frozenset[str], Check]]) -> Check:
    """The `or` of the (free variables, check) `sides` under the
    universals of `univ`, the only place that builds a universal node.
    Over a nonempty bound, forall v . A is A, and forall v . (A or B) is
    A or forall v . B, when A does not read v.  So, innermost universal
    first, each side that does not read v runs at one point of v's
    bound, and the sides that read v run after them under one universal
    over the whole bound: a TRUE one-point side stops the `or` before any
    slab runs."""
    for var, box in reversed(univ):
        reads = [side for side in sides if var in side[0]]
        sides = [(free, partial(_univ, (box[0], box[0], box[2]), check))
                 for free, check in sides if var not in free]
        if reads:
            sides.append((frozenset().union(*(free for free, _ in reads)) - {var},
                          partial(_univ, box, _or(reads))))
    return _or(sides)


def _or(sides: list[tuple[frozenset[str], Check]]) -> Check:
    """One check for the `or` of the (free variables, check) `sides`."""
    return sides[0][1] if len(sides) == 1 else partial(
        _combine, [check for _, check in sides], TRI_T)


class ClassBReport(Frozen):
    __slots__ = _fields = ("in_class", "violations")

    def __init__(self, in_class: bool, violations: tuple[str, ...] = ()) -> None:
        init_field(self, "in_class", in_class)
        init_field(self, "violations", violations)


def validate_class_b(f: Formula) -> ClassBReport:
    """Check membership in the solvable fragment, with the checks of the
    compile walk: exists blocks are conjunctions of equations and
    inequalities with n >= m or n = 0, composed under forall, and, or,
    and no quantifier rebinds a variable bound above it."""
    violations: list[str] = []
    _compile(f, (), violations)
    return ClassBReport(not violations, tuple(violations))


def checksat(s: Formula, p_box: Sequence[Ival], r, pnames: Sequence[str] = ()) -> TriValue:
    """Three-valued check of s over the parameter box, one `Ival` per free
    variable in quantification order, named by `pnames`; a singleton
    answer holds for every parameter value in the box.  A box that does
    not fit the sentence, or a quantifier that rebinds a parameter name,
    raises ValueError."""
    r = rat(r)
    if r.numerator <= 0:
        raise ValueError("refinement parameter must be positive")
    pnames, p_box = tuple(pnames), tuple(p_box)
    violations: list[str] = []
    free, check = _compile(s, pnames, violations)
    missing = free - set(pnames)
    if missing:
        raise ValueError(f"free variables without a parameter name: {sorted(missing)}")
    repeated = sorted({name for name in pnames if pnames.count(name) > 1})
    if repeated:
        raise ValueError(f"repeated parameter names: {repeated}")
    if len(p_box) != len(pnames):
        raise ValueError(f"{len(p_box)} parameter intervals for {len(pnames)} parameter names")
    for name, (lo, hi, d) in zip(pnames, p_box):
        if d <= 0:
            raise ValueError(f"parameter {name}: denominator {d} is not positive")
        if lo > hi:
            raise ValueError(f"parameter {name}: endpoints out of order: [{lo}/{d}, {hi}/{d}]")
    if violations:
        raise ValueError("; ".join(violations))
    return check(p_box, IterationRecord(0, r, TRI_TF, precision=prec_for(r)))[0]


# ---------------------------------------------------------------------------
# existential blocks


def _soei(
    bounds: tuple[Ival, ...], fs: list[Evaluator], gs: list[Evaluator],
    frontier: list[Cell] | None, p_env: tuple[Ival, ...], it: IterationRecord,
) -> tuple[TriValue, Fraction | None]:
    """Decide a block on the grid of width `it.eps` at precision
    `it.precision`.  A `frontier` list (None for a block that reads a
    parameter) holds the plausible cells of the last pass: this pass
    starts from them, and only when it finds no plausible cell does a
    full pass decide."""
    m, n = len(bounds), len(fs)
    p = it.precision
    grid = grid_cover(bounds, it.eps)

    # an overdetermined block (n > m) is undecided once one cell is plausible
    first = n > m
    plausible: list[Cell] = []
    if frontier:
        plausible, _ = _plausible_cells(fs, gs, p_env, grid, it, first, frontier)
    if not plausible:
        plausible, separation = _plausible_cells(fs, gs, p_env, grid, it, first)
    if frontier is not None:
        frontier[:] = plausible
    if not plausible:
        return TRI_F, separation
    if n == 0:
        for cell in plausible:
            lb = positive_lower_bound(gs, p_env + cell, p)
            if lb is not None:  # every inequality strictly positive here
                return TRI_T, lb
    if n == 0 or n != m:  # n = 0 undecided, or overdetermined n > m
        return TRI_TF, None
    # The degree of each candidate complex runs on the block's own tapes
    # at the slice centre, each parameter the degenerate interval of its
    # midpoint, which is sound because no boundary face of the complex
    # holds a zero anywhere on the slice.  The face walk's certificates
    # hold on the whole slice, so they seed the degree's top level, and
    # its `boundary_min_lb`, the least of them over the complex's
    # boundary, is a certificate for every parameter value.
    centre = tuple((lo + hi, lo + hi, 2 * d) for lo, hi, d in p_env)
    certs: dict[Cell, Cert] = {}
    for cells in _candidate_complexes(fs, p_env, grid, it, plausible, certs):
        result = degree(fs, cells, p, centre, certs=certs)
        it.complexes += 1
        it.degrees.append(None if result is None else result.value)
        if result is None:
            continue
        it.degree_subdivisions += result.subdivisions
        if result.value == 0:
            continue
        cert = result.boundary_min_lb
        for cell in cells if gs else ():
            lb = positive_lower_bound(gs, p_env + cell, p)
            if lb is None:  # an inequality may fail inside this complex
                break
            cert = min(cert, lb)
        else:
            return TRI_T, cert
    return TRI_TF, None


def _plausible_cells(
    fs: list[Evaluator], gs: list[Evaluator], p_env: tuple[Ival, ...], grid: Grid,
    it: IterationRecord, first: bool = False, carried: list[Cell] | None = None,
) -> tuple[list[Cell], Fraction | None]:
    """Refute the grid top-down: a refuted block drops all of its cells,
    a plausible one is halved until single cells remain.  Returns the
    plausible cells in grid order and, when there are none, the least
    separation bound of the refuted blocks.  With `first`, the search
    stops at the first plausible cell.

    With `carried`, the plausible cells of a pass on an earlier, coarser
    grid over the same box, the search starts from their children on
    this grid; everything else was refuted there."""
    blocks = [grid.base] if carried is None else covering_cells(carried, grid)
    num, den = 0, 0  # the least bound num/den so far; den 0 is none yet
    evaluated = 0
    plausible: list[Cell] = []
    while blocks:
        block = blocks.pop()
        bound = _refutation_bound(fs, gs, p_env + block, it.precision)
        evaluated += 1
        if bound is not None:
            if not den or bound[0] * den < num * bound[1]:
                num, den = bound
            continue
        halves = halve_block(block, grid)
        if halves is None:
            plausible.append(block)
            if first:
                break
        else:
            blocks += halves
    it.cells_evaluated += evaluated
    if plausible:
        it.cells_plausible += len(plausible)
        plausible.sort()
        return plausible, None
    return plausible, Fraction(num, den)  # no plausible cell: some block was refuted


def _refutation_bound(
    fs: list[Evaluator], gs: list[Evaluator], env: tuple[Ival, ...], p: int
) -> tuple[int, int] | None:
    """A positive separation bound (num, den) when the box admits no
    solution: the mignitude of `certify`'s equation or else the distance
    below zero of the first inequality below zero; None when the box
    stays plausible (a DomainError refutes nothing)."""
    cert = certify(fs, env, p)
    if cert is not None:
        return cert[2], cert[3]
    for g in gs:
        try:
            _, hi, d = g(env, p)
        except DomainError:
            continue
        if hi < 0:
            return -hi, d
    return None


def _candidate_complexes(
    fs: list[Evaluator], p_env: tuple[Ival, ...], grid: Grid, it: IterationRecord,
    plausible: list[Cell], certs: dict[Cell, Cert],
) -> list[list[Cell]]:
    """The cells of each zero-face component that holds a plausible cell
    and no zero face on the grid boundary, in grid order, the components
    in the grid order of their least plausible cell: each plausible cell
    not yet reached starts a flood, which a zero face on the grid
    boundary dooms.  A component of refuted cells only has no zero, hence
    degree 0, and is never reached.  Every face of every reached cell is
    tested once; the `certify` certificate of each face that is not a
    zero face goes into `certs`, keyed by the face.  It is evaluated on
    `p_env` and the face, so it holds on the whole slice."""
    p = it.precision
    reached: set[Cell] = set()
    tested: set[Cell] = set()
    zeros = 0
    complexes: list[list[Cell]] = []
    for seed in plausible:
        if seed in reached:
            continue
        reached.add(seed)
        cells, doomed = [seed], False
        for cell in cells:  # the flood appends the cells it reaches
            for face, other in faces_around(cell, grid):
                if face in tested:
                    continue
                tested.add(face)
                cert = certify(fs, p_env + face, p)
                if cert is not None:
                    certs[face] = cert
                    continue
                zeros += 1
                if other is None:
                    doomed = True
                elif other not in reached:
                    reached.add(other)
                    cells.append(other)
        if not doomed:
            cells.sort()
            complexes.append(cells)
    it.faces_evaluated += len(tested)
    it.zero_faces += zeros
    return complexes


# ---------------------------------------------------------------------------
# universal quantification and connectives


def _fold(
    dominant: TriValue, pairs: Iterable[tuple[TriValue, Fraction | None]],
) -> tuple[TriValue, Fraction | None]:
    """The verdict of a universal or a connective from the (verdict,
    certificate) pairs of its slabs or sides, read in order and made on
    demand.  The first pair whose verdict is `dominant` (FALSE for a
    universal or an `and`, TRUE for an `or`) decides at once, with its
    own certificate, and no later pair is made: the result only flips
    when every side with that verdict flips, so one side's margin is a
    margin of the whole.  Otherwise an undecided pair leaves the result
    undecided, and when every pair has the other verdict, the result
    flips with any one of them and carries their least certificate."""
    undecided, least = False, None
    for verdict, cert in pairs:
        if verdict == dominant:
            return verdict, cert
        if verdict == TRI_TF:
            undecided = True
        elif least is None or cert < least:
            least = cert
    return (TRI_TF, None) if undecided else (TRI_TF - dominant, least)


def _univ(
    box: Ival, body: Check, p_env: tuple[Ival, ...], it: IterationRecord,
) -> tuple[TriValue, Fraction | None]:
    """The fold of the body over the slabs of `box` on the grid of width
    `it.eps`, each slab appended to `p_env`."""
    (c,), (lo, hi, d) = grid_cover((box,), it.eps).counts, box
    lo, w, e = lo * c, hi - lo, d * c  # slab i is lo + w*i .. lo + w*(i + 1) over e
    return _fold(TRI_F, (body(p_env + ((lo + w * i, lo + w * (i + 1), e),), it)
                         for i in range(c)))  # made when the fold reads it


def _combine(
    sides: list[Check], dominant: TriValue, p_env: tuple[Ival, ...], it: IterationRecord,
) -> tuple[TriValue, Fraction | None]:
    """The fold of an and/or node's sides, run in order on `p_env`."""
    return _fold(dominant, (side(p_env, it) for side in sides))


# ---------------------------------------------------------------------------
# driver


def quasi_decide(
    s: Formula,
    budget: int = 20,
    eps: Fraction = Fraction(1),
) -> Verdict:
    """Halve the refinement parameter until checksat returns a singleton;
    report UNKNOWN when the iteration budget runs out."""
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError("budget must be a positive integer")
    eps = rat(eps)
    if eps.numerator <= 0:
        raise ValueError("initial epsilon must be positive")
    violations: list[str] = []
    free, check = _compile(s, (), violations)
    if free:
        raise ValueError(f"not a sentence; free variables: {sorted(free)}")
    if violations:
        raise ValueError("; ".join(violations))

    # eps = num/den in lowest terms is halved on the integers; each record
    # holds the one Fraction of its iteration, the grid width, and p
    num, den = eps.numerator, eps.denominator
    trace: list[IterationRecord] = []
    for i in range(1, budget + 1):
        record = IterationRecord(i, eps, TRI_TF, precision=prec_for(eps))
        result, cert = check((), record)
        record.result = result
        trace.append(record)
        if len(result) == 1:
            return Verdict("TRUE" if True in result else "FALSE", i, eps, cert, trace)
        if num & 1:
            den <<= 1
        else:
            num >>= 1
        eps = Fraction(num, den)
    return Verdict("UNKNOWN", budget, record.eps, None, trace)
