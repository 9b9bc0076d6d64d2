"""Call-graph construction and receiver-typed resolution tests.

Resolution precision is what keeps RPL102/RPL103 usable: a ``service.start()``
that fanned out to every ``start`` method in the tree would drown the
checkers in cross-class noise.  These tests pin the narrowing rules —
constructor/annotation/iteration type evidence, hierarchy dispatch, the
external-class cutoff.
"""

from repro.analysis.flow.callgraph import build_call_graph


def _graph(*sources):
    return build_call_graph(list(sources))


def _fn(graph, qualname_suffix):
    matches = [f for f in graph.functions if f.qualname.endswith(qualname_suffix)]
    assert len(matches) == 1, f"{qualname_suffix}: {[f.qualname for f in graph.functions]}"
    return matches[0]


def _call(fn, callee):
    matches = [c for c in fn.calls if c.callee == callee]
    assert matches, f"no call to {callee} in {fn.qualname}"
    return matches[0]


class TestTypedResolution:
    TWO_CLASSES = (
        "svc.py",
        "class Service:\n"
        "    def close(self):\n"
        "        pass\n"
        "class Journal:\n"
        "    def close(self):\n"
        "        pass\n"
        "def use():\n"
        "    s = Service()\n"
        "    s.close()\n",
    )

    def test_constructor_types_the_receiver(self):
        graph = _graph(self.TWO_CLASSES)
        use = _fn(graph, "::use")
        targets = graph.resolve_call(_call(use, "close"), use)
        assert [t.qualname for t in targets] == ["svc.py::Service.close"]

    def test_param_annotation_types_the_receiver(self):
        graph = _graph(
            (
                "svc.py",
                "class Service:\n"
                "    def close(self):\n"
                "        pass\n"
                "class Journal:\n"
                "    def close(self):\n"
                "        pass\n"
                "def use(s: Service):\n"
                "    s.close()\n",
            )
        )
        use = _fn(graph, "::use")
        targets = graph.resolve_call(_call(use, "close"), use)
        assert [t.qualname for t in targets] == ["svc.py::Service.close"]

    def test_unknown_external_class_gets_no_edges(self):
        # ``open()`` returns a file object we never scanned; its close()
        # must not alias onto our classes' close methods.
        graph = _graph(
            (
                "svc.py",
                "class Journal:\n"
                "    def close(self):\n"
                "        pass\n"
                "def use():\n"
                "    fh = open('x')\n"
                "    fh.close()\n",
            )
        )
        use = _fn(graph, "::use")
        assert graph.resolve_call(_call(use, "close"), use) == []

    def test_untyped_attribute_receiver_fans_out_to_methods(self):
        graph = _graph(
            (
                "svc.py",
                "class A:\n"
                "    def go(self):\n"
                "        pass\n"
                "class B:\n"
                "    def go(self):\n"
                "        pass\n"
                "def go():\n"
                "    pass\n"
                "def use(x):\n"
                "    x.go()\n",
            )
        )
        use = _fn(graph, "::use")
        targets = {t.qualname for t in graph.resolve_call(_call(use, "go"), use)}
        # Conservative fan-out over methods — but never the free function.
        assert targets == {"svc.py::A.go", "svc.py::B.go"}

    def test_bare_call_hits_free_functions_and_constructors(self):
        graph = _graph(
            (
                "svc.py",
                "class Runner:\n"
                "    def __init__(self):\n"
                "        pass\n"
                "    def run(self):\n"
                "        pass\n"
                "def run():\n"
                "    pass\n"
                "def use():\n"
                "    run()\n"
                "    Runner()\n",
            )
        )
        use = _fn(graph, "::use")
        run_targets = {t.qualname for t in graph.resolve_call(_call(use, "run"), use)}
        assert run_targets == {"svc.py::run"}  # never the *method* run
        ctor_targets = {t.qualname for t in graph.resolve_call(_call(use, "Runner"), use)}
        assert ctor_targets == {"svc.py::Runner.__init__"}

    def test_self_call_resolves_within_own_class(self):
        graph = _graph(
            (
                "svc.py",
                "class A:\n"
                "    def helper(self):\n"
                "        pass\n"
                "    def run(self):\n"
                "        self.helper()\n"
                "class B:\n"
                "    def helper(self):\n"
                "        pass\n",
            )
        )
        run = _fn(graph, "::A.run")
        targets = graph.resolve_call(_call(run, "helper"), run)
        assert [t.qualname for t in targets] == ["svc.py::A.helper"]

    def test_self_attr_typed_by_init_assignment(self):
        graph = _graph(
            (
                "svc.py",
                "class Journal:\n"
                "    def close(self):\n"
                "        pass\n"
                "class Other:\n"
                "    def close(self):\n"
                "        pass\n"
                "class Service:\n"
                "    def __init__(self):\n"
                "        self._journal = Journal()\n"
                "    def stop(self):\n"
                "        self._journal.close()\n",
            )
        )
        stop = _fn(graph, "::Service.stop")
        targets = graph.resolve_call(_call(stop, "close"), stop)
        assert [t.qualname for t in targets] == ["svc.py::Journal.close"]

    def test_hierarchy_dispatch_includes_subclasses(self):
        # A base-typed handle may hold a subclass at runtime: resolution
        # must include the override (virtual dispatch) and inherited
        # helpers defined only on the base.
        graph = _graph(
            (
                "svc.py",
                "class Executor:\n"
                "    def stop(self):\n"
                "        pass\n"
                "class ProcessExecutor(Executor):\n"
                "    def stop(self):\n"
                "        pass\n"
                "def use(e: Executor):\n"
                "    e.stop()\n",
            )
        )
        use = _fn(graph, "::use")
        targets = {t.qualname for t in graph.resolve_call(_call(use, "stop"), use)}
        assert targets == {"svc.py::Executor.stop", "svc.py::ProcessExecutor.stop"}

    def test_loop_target_typed_from_annotated_container(self):
        graph = _graph(
            (
                "svc.py",
                "class Handle:\n"
                "    def close(self):\n"
                "        pass\n"
                "class Other:\n"
                "    def close(self):\n"
                "        pass\n"
                "class Pool:\n"
                "    def __init__(self):\n"
                "        self._handles: list[Handle] = []\n"
                "    def stop(self):\n"
                "        for h in self._handles:\n"
                "            h.close()\n",
            )
        )
        stop = _fn(graph, "::Pool.stop")
        targets = graph.resolve_call(_call(stop, "close"), stop)
        assert [t.qualname for t in targets] == ["svc.py::Handle.close"]


class TestExtraction:
    def test_sinks_and_await_flags(self):
        graph = _graph(
            (
                "svc.py",
                "import time, asyncio\n"
                "async def tick(q):\n"
                "    time.sleep(1)\n"
                "    await asyncio.sleep(0)\n",
            )
        )
        tick = _fn(graph, "::tick")
        assert tick.is_async
        assert [(s.kind, s.label) for s in tick.sinks] == [("sleep", "time.sleep")]
        assert _call(tick, "sleep").awaited or any(
            c.callee == "sleep" and c.awaited for c in tick.calls
        )

    def test_pool_submit_is_a_thread_handoff(self):
        graph = _graph(
            ("svc.py", "def use(pool, fn):\n    pool.submit(fn)\n")
        )
        assert _fn(graph, "::use").thread_refs == ["fn"]

    def test_service_submit_is_not_a_thread_handoff(self):
        # service.submit(job) submits a job *object*; treating "job" as a
        # thread entry point would poison the RPL103 worker context.
        graph = _graph(
            ("svc.py", "def use(service, job):\n    service.submit(job)\n")
        )
        assert _fn(graph, "::use").thread_refs == []

    def test_thread_target_and_to_thread_are_handoffs(self):
        graph = _graph(
            (
                "svc.py",
                "import threading, asyncio\n"
                "async def go(work):\n"
                "    threading.Thread(target=work).start()\n"
                "    await asyncio.to_thread(work)\n",
            )
        )
        assert _fn(graph, "::go").thread_refs == ["work", "work"]

    def test_with_lock_annotates_enclosed_writes_and_calls(self):
        graph = _graph(
            (
                "svc.py",
                "class C:\n"
                "    def bump(self):\n"
                "        with self._lock:\n"
                "            self.count = 1\n"
                "            self.helper()\n"
                "    def unlocked(self):\n"
                "        self.count = 2\n",
            )
        )
        bump = _fn(graph, "::C.bump")
        assert [w.lock for w in bump.attr_writes] == ["self._lock"]
        assert _call(bump, "helper").lock == "self._lock"
        assert [w.lock for w in _fn(graph, "::C.unlocked").attr_writes] == [None]
