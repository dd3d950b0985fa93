"""Multiple-object allocation (section 7.2).

The paper sketches an extension where a single operation reads or
writes a *set* of objects: reads of x only, reads of y only, joint
reads of {x, y}, and similarly for writes, each class arriving with its
own Poisson frequency.  A static allocation now assigns each object a
scheme, and the cost of one operation (connection model, where
"multiple data items can be remotely read in one connection") is:

* a read costs one connection iff it touches *any* object the mobile
  computer does not replicate;
* a write costs one connection iff it touches *any* object the mobile
  computer does replicate.

The paper evaluates the four allocations for two objects by hand (e.g.
``EXP_{ST1} = (λ_{r,x} + λ_{r,y} + λ_{r,xy})/λ``) and picks the argmin,
noting the method "can be generalized to any finite set of objects".
We provide that generalization twice over:

* :class:`ExhaustiveStaticOptimizer` — evaluates all 2^N allocations
  (the reference implementation, exponential);
* :class:`MinCutStaticOptimizer` — an exact polynomial-time optimizer.
  Penalizing "some object of S is un-replicated" (reads) and "some
  object of S is replicated" (writes) are both submodular OR-penalties,
  so the optimum is a minimum s-t cut: one node per object, an
  auxiliary node per operation class, replicated ⇔ source side.

For unknown frequencies the paper proposes estimating them from a
sliding window and re-optimizing periodically;
:class:`WindowedMultiObjectAllocator` implements that dynamic method.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

import networkx as nx

from ..costmodels.base import CostEventKind, CostModel
from ..costmodels.connection import ConnectionCostModel
from ..exceptions import InvalidParameterError
from ..types import AllocationScheme, Operation, Request

__all__ = [
    "OperationClass",
    "MultiObjectWorkloadSpec",
    "Allocation",
    "expected_cost",
    "ExhaustiveStaticOptimizer",
    "MinCutStaticOptimizer",
    "WindowedMultiObjectAllocator",
    "MultiObjectOfflineOptimal",
]


@dataclass(frozen=True)
class OperationClass:
    """One class of joint operations: kind plus the touched object set."""

    operation: Operation
    objects: FrozenSet[str]

    def __post_init__(self):
        if not self.objects:
            raise InvalidParameterError("an operation class must touch >= 1 object")

    @classmethod
    def read(cls, *objects: str) -> "OperationClass":
        return cls(Operation.READ, frozenset(objects))

    @classmethod
    def write(cls, *objects: str) -> "OperationClass":
        return cls(Operation.WRITE, frozenset(objects))

    def __repr__(self) -> str:
        names = ",".join(sorted(self.objects))
        return f"{self.operation.symbol}({names})"


class MultiObjectWorkloadSpec:
    """Operation-class frequencies λ_{op,S} (section 7.2).

    Frequencies need not be normalized; expected costs divide by the
    total, matching the paper's ``.../λ`` notation.
    """

    def __init__(self, frequencies: Mapping[OperationClass, float]):
        cleaned: Dict[OperationClass, float] = {}
        for op_class, frequency in frequencies.items():
            frequency = float(frequency)
            if frequency < 0:
                raise InvalidParameterError(
                    f"frequency of {op_class!r} must be >= 0, got {frequency!r}"
                )
            if frequency > 0:
                cleaned[op_class] = cleaned.get(op_class, 0.0) + frequency
        if not cleaned:
            raise InvalidParameterError("workload needs at least one positive frequency")
        self._frequencies = cleaned

    @property
    def frequencies(self) -> Mapping[OperationClass, float]:
        return dict(self._frequencies)

    @property
    def total_rate(self) -> float:
        return sum(self._frequencies.values())

    @property
    def objects(self) -> FrozenSet[str]:
        names: set = set()
        for op_class in self._frequencies:
            names |= op_class.objects
        return frozenset(names)

    def probability(self, op_class: OperationClass) -> float:
        """Share of the total rate this class accounts for."""
        return self._frequencies.get(op_class, 0.0) / self.total_rate

    def __len__(self) -> int:
        return len(self._frequencies)


#: An allocation maps each object name to its scheme.
Allocation = Dict[str, AllocationScheme]


def _read_penalty(cost_model: CostModel) -> float:
    """Price of a read touching at least one un-replicated object."""
    return cost_model.remote_read_cost


def _write_penalty(cost_model: CostModel) -> float:
    """Price of a write touching at least one replicated object."""
    return cost_model.write_propagate_cost


def expected_cost(
    spec: MultiObjectWorkloadSpec,
    allocation: Mapping[str, AllocationScheme],
    cost_model: Optional[CostModel] = None,
) -> float:
    """Expected cost of one operation under a static allocation.

    With the connection model this reproduces the paper's examples,
    e.g. for objects x, y under ST1 (neither replicated) every read
    class pays and no write class does:
    ``(λ_{r,x} + λ_{r,y} + λ_{r,xy}) / λ``.
    """
    cost_model = cost_model if cost_model is not None else ConnectionCostModel()
    missing = spec.objects - set(allocation)
    if missing:
        raise InvalidParameterError(
            f"allocation does not cover objects {sorted(missing)}"
        )
    read_price = _read_penalty(cost_model)
    write_price = _write_penalty(cost_model)
    total = 0.0
    for op_class, frequency in spec.frequencies.items():
        if op_class.operation is Operation.READ:
            touches_remote = any(
                not allocation[name].mobile_has_copy for name in op_class.objects
            )
            if touches_remote:
                total += frequency * read_price
        else:
            touches_replica = any(
                allocation[name].mobile_has_copy for name in op_class.objects
            )
            if touches_replica:
                total += frequency * write_price
    return total / spec.total_rate


class ExhaustiveStaticOptimizer:
    """Reference optimizer: evaluate all 2^N allocations.

    Guarded to 20 objects (about a million candidates); the min-cut
    optimizer has no such limit.
    """

    MAX_OBJECTS = 20

    def __init__(self, cost_model: Optional[CostModel] = None):
        self._cost_model = cost_model if cost_model is not None else ConnectionCostModel()

    def optimize(self, spec: MultiObjectWorkloadSpec) -> Tuple[Allocation, float]:
        """The argmin allocation and its expected per-operation cost."""
        names = sorted(spec.objects)
        if len(names) > self.MAX_OBJECTS:
            raise InvalidParameterError(
                f"exhaustive search over {len(names)} objects is infeasible; "
                "use MinCutStaticOptimizer"
            )
        best_allocation: Optional[Allocation] = None
        best_cost = float("inf")
        for choices in itertools.product(
            (AllocationScheme.ONE_COPY, AllocationScheme.TWO_COPIES),
            repeat=len(names),
        ):
            allocation = dict(zip(names, choices))
            cost = expected_cost(spec, allocation, self._cost_model)
            if cost < best_cost:
                best_cost = cost
                best_allocation = allocation
        assert best_allocation is not None  # spec is non-empty
        return best_allocation, best_cost


class MinCutStaticOptimizer:
    """Exact polynomial-time optimizer via minimum s-t cut.

    Graph construction (replicated ⇔ source side of the cut):

    * read class S with frequency λ: auxiliary node ``u`` with an edge
      ``source → u`` of capacity λ·read_price and edges ``u → o`` of
      infinite capacity for each o ∈ S.  The λ-edge is cut exactly when
      some object of S sits on the sink (un-replicated) side.
    * write class S with frequency λ: auxiliary node ``v`` with an edge
      ``v → sink`` of capacity λ·write_price and infinite edges
      ``o → v``.  The λ-edge is cut exactly when some object of S sits
      on the source (replicated) side.

    Both penalty shapes are submodular ORs, so the cut value equals the
    (unnormalized) expected cost and the minimum cut is the optimum.
    """

    def __init__(self, cost_model: Optional[CostModel] = None):
        self._cost_model = cost_model if cost_model is not None else ConnectionCostModel()

    def optimize(self, spec: MultiObjectWorkloadSpec) -> Tuple[Allocation, float]:
        """The optimal allocation via a minimum s-t cut (exact)."""
        graph = nx.DiGraph()
        source, sink = "__source__", "__sink__"
        graph.add_node(source)
        graph.add_node(sink)
        read_price = _read_penalty(self._cost_model)
        write_price = _write_penalty(self._cost_model)
        for name in spec.objects:
            graph.add_node(("obj", name))
        for index, (op_class, frequency) in enumerate(spec.frequencies.items()):
            if op_class.operation is Operation.READ:
                aux = ("read", index)
                graph.add_edge(source, aux, capacity=frequency * read_price)
                for name in op_class.objects:
                    graph.add_edge(aux, ("obj", name))  # no capacity => infinite
            else:
                aux = ("write", index)
                graph.add_edge(aux, sink, capacity=frequency * write_price)
                for name in op_class.objects:
                    graph.add_edge(("obj", name), aux)
        cut_value, (source_side, _sink_side) = nx.minimum_cut(graph, source, sink)
        allocation: Allocation = {}
        for name in spec.objects:
            replicated = ("obj", name) in source_side
            allocation[name] = (
                AllocationScheme.TWO_COPIES if replicated else AllocationScheme.ONE_COPY
            )
        return allocation, cut_value / spec.total_rate


class WindowedMultiObjectAllocator:
    """The dynamic multi-object method sketched at the end of section 7.2.

    Keeps a sliding window of the last ``window_size`` operations,
    estimates the class frequencies from it, and every
    ``reallocation_period`` operations re-runs the static optimizer and
    adopts its allocation.  Charges (documented extension — the paper
    does not price transitions):

    * a read touching any un-replicated object: one remote read;
    * a write touching any replicated object: one propagation;
    * each object newly replicated at a re-allocation: one data
      transfer (its value must move to the MC);
    * dropping replicas is free in the connection model (the decision
      notice shares a connection with the reallocation exchange) and
      one control message per re-allocation batch in the message model.
    """

    def __init__(
        self,
        objects: Iterable[str],
        window_size: int = 100,
        reallocation_period: int = 10,
        cost_model: Optional[CostModel] = None,
        optimizer: str = "mincut",
    ):
        self._objects = sorted(set(objects))
        if not self._objects:
            raise InvalidParameterError("need at least one object")
        if window_size < 1:
            raise InvalidParameterError(f"window_size must be >= 1, got {window_size}")
        if reallocation_period < 1:
            raise InvalidParameterError(
                f"reallocation_period must be >= 1, got {reallocation_period}"
            )
        self._window_size = window_size
        self._period = reallocation_period
        self._cost_model = cost_model if cost_model is not None else ConnectionCostModel()
        if optimizer == "mincut":
            self._optimizer = MinCutStaticOptimizer(self._cost_model)
        elif optimizer == "exhaustive":
            self._optimizer = ExhaustiveStaticOptimizer(self._cost_model)
        else:
            raise InvalidParameterError(
                f"optimizer must be 'mincut' or 'exhaustive', got {optimizer!r}"
            )
        self._window: List[OperationClass] = []
        self._since_reallocation = 0
        self._allocation: Allocation = {
            name: AllocationScheme.ONE_COPY for name in self._objects
        }

    @property
    def allocation(self) -> Allocation:
        return dict(self._allocation)

    def process(self, request: Request) -> float:
        """Serve one multi-object request; returns its charge."""
        if not request.objects:
            raise InvalidParameterError(
                "multi-object requests must name the objects they touch"
            )
        unknown = set(request.objects) - set(self._objects)
        if unknown:
            raise InvalidParameterError(f"unknown objects {sorted(unknown)}")
        op_class = OperationClass(request.operation, frozenset(request.objects))
        cost = self._service_cost(op_class)
        self._observe(op_class)
        self._since_reallocation += 1
        if self._since_reallocation >= self._period and self._window:
            cost += self._reallocate()
            self._since_reallocation = 0
        return cost

    def run(self, requests: Iterable[Request]) -> float:
        """Total cost of serving a request stream."""
        return sum(self.process(request) for request in requests)

    # -- internals -----------------------------------------------------

    def _service_cost(self, op_class: OperationClass) -> float:
        if op_class.operation is Operation.READ:
            remote = any(
                not self._allocation[name].mobile_has_copy
                for name in op_class.objects
            )
            return _read_penalty(self._cost_model) if remote else 0.0
        replicated = any(
            self._allocation[name].mobile_has_copy for name in op_class.objects
        )
        return _write_penalty(self._cost_model) if replicated else 0.0

    def _observe(self, op_class: OperationClass) -> None:
        self._window.append(op_class)
        if len(self._window) > self._window_size:
            del self._window[0]

    def _estimated_spec(self) -> MultiObjectWorkloadSpec:
        counts: Dict[OperationClass, float] = {}
        for op_class in self._window:
            counts[op_class] = counts.get(op_class, 0.0) + 1.0
        # Objects never observed keep a zero frequency; give the spec a
        # harmless epsilon read so they stay in the graph.
        for name in self._objects:
            probe = OperationClass.read(name)
            counts.setdefault(probe, 0.0)
        positive = {oc: max(f, 1e-12) for oc, f in counts.items()}
        return MultiObjectWorkloadSpec(positive)

    def _reallocate(self) -> float:
        new_allocation, _cost = self._optimizer.optimize(self._estimated_spec())
        transition_cost = 0.0
        newly_replicated = [
            name
            for name in self._objects
            if new_allocation[name].mobile_has_copy
            and not self._allocation[name].mobile_has_copy
        ]
        dropped = [
            name
            for name in self._objects
            if not new_allocation[name].mobile_has_copy
            and self._allocation[name].mobile_has_copy
        ]
        transition_cost += len(newly_replicated) * self._cost_model.acquire_cost
        if dropped and not isinstance(self._cost_model, ConnectionCostModel):
            # One control message tells the SC which subscriptions stop.
            transition_cost += self._cost_model.price(
                CostEventKind.WRITE_DELETE_REQUEST
            )
        self._allocation = new_allocation
        return transition_cost


class MultiObjectOfflineOptimal:
    """Offline optimum for the multi-object setting (extends section 3).

    The single-object competitor M generalizes naturally: the state is
    the *set* of replicated objects, serving costs follow the joint
    rules (a read pays iff it touches an un-replicated object, a write
    pays iff it touches a replicated one), and after each request the
    allocation may change — acquiring an object costs one data
    transfer unless the request just served was a read touching that
    object whose data already travelled to the MC (the piggyback rule);
    releases are free.

    The DP is exact but exponential in the number of objects
    (2^N states, 4^N transition pairs per request); it exists to
    measure the windowed dynamic allocator's empirical competitive
    ratio on small catalogs, not to run in production.
    """

    MAX_OBJECTS = 8

    def __init__(self, cost_model: Optional[CostModel] = None):
        self._cost_model = (
            cost_model if cost_model is not None else ConnectionCostModel()
        )

    def optimal_cost(self, schedule, objects: Iterable[str]) -> float:
        """Minimum cost of serving a multi-object request sequence.

        Parameters
        ----------
        schedule:
            Requests whose ``objects`` name the touched items.
        objects:
            The full object universe (items never touched still belong
            to the state space).
        """
        names = sorted(set(objects))
        if not names:
            raise InvalidParameterError("need at least one object")
        if len(names) > self.MAX_OBJECTS:
            raise InvalidParameterError(
                f"the exact multi-object DP handles at most "
                f"{self.MAX_OBJECTS} objects, got {len(names)}"
            )
        index_of = {name: i for i, name in enumerate(names)}
        num_states = 1 << len(names)
        read_price = _read_penalty(self._cost_model)
        write_price = _write_penalty(self._cost_model)
        acquire = self._cost_model.acquire_cost
        release = self._cost_model.release_cost

        infinity = float("inf")
        best = [infinity] * num_states
        best[0] = 0.0  # start with nothing replicated
        popcount = [state.bit_count() for state in range(num_states)]

        for request in schedule:
            if not request.objects:
                raise InvalidParameterError(
                    "multi-object requests must name their objects"
                )
            mask = 0
            for name in request.objects:
                bit = index_of.get(name)
                if bit is None:
                    raise InvalidParameterError(f"unknown object {name!r}")
                mask |= 1 << bit
            is_read = request.operation is Operation.READ

            # Serve in each state.
            served = [infinity] * num_states
            for state in range(num_states):
                if best[state] == infinity:
                    continue
                if is_read:
                    charge = read_price if (mask & ~state) else 0.0
                else:
                    charge = write_price if (mask & state) else 0.0
                served[state] = best[state] + charge

            # Transition to any allocation.  Acquisitions of objects in
            # a remotely-served read's mask are free (piggyback).
            nxt = [infinity] * num_states
            for state in range(num_states):
                base = served[state]
                if base == infinity:
                    continue
                free_mask = mask if (is_read and (mask & ~state)) else 0
                for target in range(num_states):
                    gained = target & ~state
                    lost = state & ~target
                    cost = (
                        base
                        + popcount[gained & ~free_mask] * acquire
                        + (release if lost else 0.0) * popcount[lost]
                    )
                    if cost < nxt[target]:
                        nxt[target] = cost
            best = nxt

        return min(best)
