"""Core virtual-actor behaviour: activation on demand, calls, state."""

import pytest

from repro.errors import ActorMethodError, UnknownActorTypeError
from repro.runtime import Actor, ActorKey, actor_method


class Counter(Actor):
    """Minimal stateful actor used across these tests."""

    def __init__(self, context):
        super().__init__(context)
        self.count = 0

    async def increment(self, by=1):
        self.count += by
        return self.count

    async def read(self):
        return self.count

    async def whoami(self):
        return self.actor_id


class Greeter(Actor):
    async def greet(self, name):
        return f"hello {name}"


def test_actor_key_forms():
    key = ActorKey("Cow", "dk-1")
    assert key.qualified() == "Cow/dk-1"
    assert ActorKey.parse("Cow/dk-1") == key
    assert ActorKey.parse("Cow/a/b").actor_id == "a/b"
    assert key.storage_key() == "state/Cow/dk-1"
    with pytest.raises(ValueError):
        ActorKey("", "x")
    with pytest.raises(ValueError):
        ActorKey("Has/Slash", "x")
    with pytest.raises(ValueError):
        ActorKey("Cow", "")
    with pytest.raises(ValueError):
        ActorKey.parse("no-separator")


def test_call_activates_on_demand(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        ref = runtime.ref("Counter", "c1")
        assert runtime.total_activations() == 0
        value = await ref.increment()
        assert runtime.total_activations() == 1
        return value

    assert sched.run_until_complete(main()) == 1
    assert runtime.stats.activations_created == 1


def test_state_persists_across_calls_to_same_actor(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        ref = runtime.ref("Counter", "c1")
        await ref.increment()
        await ref.increment(5)
        return await ref.read()

    assert sched.run_until_complete(main()) == 6


def test_distinct_ids_are_distinct_actors(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        a = runtime.ref("Counter", "a")
        b = runtime.ref("Counter", "b")
        await a.increment(10)
        await b.increment(1)
        return await a.read(), await b.read()

    assert sched.run_until_complete(main()) == (10, 1)
    assert runtime.total_activations() == 2


def test_actor_knows_its_identity(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        return await runtime.ref("Counter", "my-id").whoami()

    assert sched.run_until_complete(main()) == "my-id"


def test_args_and_kwargs_are_forwarded(sched, runtime):
    runtime.register_actor(Greeter)

    async def main():
        ref = runtime.ref("Greeter", "g")
        return await ref.greet(name="world")

    assert sched.run_until_complete(main()) == "hello world"


def test_unknown_actor_type_fails_fast(runtime):
    with pytest.raises(UnknownActorTypeError):
        runtime.ref("Nope", "x")


def test_unknown_method_rejects_reply(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        with pytest.raises(ActorMethodError):
            await runtime.ref("Counter", "c").no_such_method()

    sched.run_until_complete(main())
    assert runtime.stats.errors == 1


class Box(Actor):
    reentrant = False

    async def put(self, value):
        self.state["value"] = value
        return value


@pytest.mark.parametrize("name", ["state", "reentrant", "context", "key"])
def test_attributes_that_are_not_methods_reject_at_zero_cost(sched, runtime, name):
    # Instance attributes (state, context), class flags (reentrant) and
    # properties (key) are no methods: the reply is ActorMethodError, and
    # no method cost is charged even with a heavy default.
    runtime.config.default_method_cost = 0.5
    runtime.register_actor(Box)
    ref = runtime.ref("Box", "b")

    async def main():
        with pytest.raises(ActorMethodError) as raised:
            await ref.ask(name)
        return str(raised.value)

    assert sched.run_until_complete(main()) == f"Box has no method {name!r}"
    assert runtime.silo("silo-1").cpu.busy_seconds == 0.0
    assert runtime.stats.errors == 1

    async def then_a_method():
        return await ref.put(7)

    assert sched.run_until_complete(then_a_method()) == 7
    assert runtime.silo("silo-1").cpu.busy_seconds == 0.5


def test_private_methods_not_callable(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        with pytest.raises(ActorMethodError):
            await runtime.ref("Counter", "c").ask("_attach_state_cell", None)

    sched.run_until_complete(main())


def test_method_exception_propagates_to_caller(sched, runtime):
    class Exploder(Actor):
        async def boom(self):
            raise ValueError("inner failure")

        async def ok(self):
            return "fine"

    runtime.register_actor(Exploder)

    async def main():
        ref = runtime.ref("Exploder", "e")
        with pytest.raises(ValueError, match="inner failure"):
            await ref.boom()
        # The activation survives a method failure.
        return await ref.ok()

    assert sched.run_until_complete(main()) == "fine"


def test_tell_is_fire_and_forget(sched, runtime):
    runtime.register_actor(Counter)

    async def main():
        ref = runtime.ref("Counter", "c")
        receipt = ref.tell("increment", 3)
        assert receipt.target.actor_id == "c"
        await sched.sleep(1)
        return await ref.read()

    assert sched.run_until_complete(main()) == 3
    assert runtime.stats.tells == 1


def test_message_payloads_are_isolated(sched, runtime):
    class Holder(Actor):
        def __init__(self, context):
            super().__init__(context)
            self.data = None

        async def store(self, payload):
            self.data = payload
            return True

        async def mutate(self):
            self.data["x"] = 999
            return self.data

    runtime.register_actor(Holder)

    async def main():
        ref = runtime.ref("Holder", "h")
        payload = {"x": 1}
        await ref.store(payload)
        payload["x"] = 2  # caller-side mutation must not reach the actor
        inside = await ref.mutate()
        return payload, inside

    caller_side, actor_side = sched.run_until_complete(main())
    assert caller_side == {"x": 2}
    assert actor_side == {"x": 999}


def test_actor_to_actor_calls(sched, runtime):
    class Relay(Actor):
        async def relay(self, target_id, amount):
            counter = self.context.actor("Counter", target_id)
            return await counter.increment(amount)

    runtime.register_actor(Counter)
    runtime.register_actor(Relay)

    async def main():
        relay = runtime.ref("Relay", "r")
        await relay.relay("c9", 7)
        return await runtime.ref("Counter", "c9").read()

    assert sched.run_until_complete(main()) == 7


def test_register_actor_rejects_non_actor(runtime):
    with pytest.raises(TypeError):
        runtime.register_actor(object)  # type: ignore[arg-type]


def test_register_actor_name_collision(runtime):
    runtime.register_actor(Counter)
    runtime.register_actor(Counter)  # same class re-registered: fine

    class Other(Actor):
        pass

    with pytest.raises(ValueError):
        runtime.register_actor(Other, name="Counter")


def test_actor_method_decorator_requires_async():
    with pytest.raises(TypeError):

        class Bad(Actor):
            @actor_method(cost=1)
            def not_async(self):  # type: ignore[misc]
                return None


def test_exposed_methods_excludes_lifecycle_and_private():
    exposed = Counter.exposed_methods()
    assert "increment" in exposed
    assert "read" in exposed
    assert "on_activate" not in exposed
    assert "write_state" not in exposed
