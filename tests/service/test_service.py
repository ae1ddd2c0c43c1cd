"""Unit tests: tenant policy, the engine ladder, the wire layer, CLI.

The concurrency suites (``test_concurrent_sessions``,
``test_admission``, ``test_fault_under_load``) exercise the service
under load; this module pins the small contracts — config validation,
ladder mechanics, seed normalisation, JSON-lines framing, error-code
round-tripping over TCP, and the ``repro serve`` / ``repro load``
CLI surface.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import telemetry
from repro.cli import build_parser, main
from repro.csidh.parameters import csidh_toy
from repro.errors import AdmissionError, ServiceError
from repro.field.fp import FieldContext
from repro.kernels.runner import KernelRunner
from repro.service import (
    ENGINE_LADDER,
    KeyExchangeService,
    ServiceClient,
    Tenant,
    TenantConfig,
    default_tenant_configs,
    start_server,
)
from repro.service.server import _seed_bytes
from repro.service.wire import _error_class


@pytest.fixture(scope="module")
def toy():
    return csidh_toy()


class TestTenantConfig:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ServiceError):
            TenantConfig("t", engine="quantum")

    def test_rejects_zero_lanes(self):
        with pytest.raises(ServiceError):
            TenantConfig("t", lanes=0)

    def test_rejects_negative_queue(self):
        with pytest.raises(ServiceError):
            TenantConfig("t", max_queue=-1)

    def test_capacity_is_lanes_plus_queue(self):
        assert TenantConfig("t", lanes=3, max_queue=5).capacity == 8

    def test_default_fleet_is_uniform_and_named(self):
        configs = default_tenant_configs(3, engine="interpreter",
                                         lanes=4)
        assert [c.name for c in configs] \
            == ["tenant-0", "tenant-1", "tenant-2"]
        assert all(c.engine == "interpreter" and c.lanes == 4
                   for c in configs)

    def test_default_fleet_needs_at_least_one(self):
        with pytest.raises(ServiceError):
            default_tenant_configs(0)


class TestEngineLadder:
    def test_fault_demotion_walks_to_the_interpreter(self, toy):
        tenant = Tenant(TenantConfig("t"), toy)
        assert tenant.engine == "aot"
        assert tenant.demote("fault")
        assert tenant.engine == "interpreter"
        assert not tenant.demote("fault")  # floor reached
        assert tenant.demotions == 1

    def test_promotion_needs_a_full_clean_streak(self, toy):
        tenant = Tenant(TenantConfig("t", engine="aot",
                                     promote_after=3), toy)
        tenant.demote("fault")
        tenant.note_result(True)
        tenant.note_result(True)
        tenant.note_result(False)  # a dirty op resets the streak
        tenant.note_result(True)
        tenant.note_result(True)
        assert tenant.engine == "interpreter"
        tenant.note_result(True)
        assert tenant.engine == "aot"
        assert tenant.promotions == 1

    def test_never_promotes_past_preference(self, toy):
        tenant = Tenant(TenantConfig("t", engine="interpreter",
                                     promote_after=1), toy)
        for _ in range(5):
            tenant.note_result(True)
        assert tenant.engine == "interpreter"
        assert tenant.promotions == 0

    def test_ladder_order_is_fastest_first(self):
        assert ENGINE_LADDER == ("aot", "interpreter")

    def test_scope_prefix_separates_services(self, toy):
        config = TenantConfig("t", lanes=2)
        first = Tenant(config, toy, scope_prefix="svcA/")
        second = Tenant(config, toy, scope_prefix="svcB/")
        first_scopes = {lane.scope for lane in first.lanes}
        second_scopes = {lane.scope for lane in second.lanes}
        assert first_scopes.isdisjoint(second_scopes)


class TestSeedNormalisation:
    def test_bytes_pass_through(self):
        assert _seed_bytes(b"abc") == b"abc"

    def test_int_and_str_are_deterministic(self):
        assert _seed_bytes(7) == _seed_bytes(7)
        assert _seed_bytes(-7) != _seed_bytes(7)
        assert _seed_bytes("alice") == b"alice"

    def test_unsupported_type_is_service_error(self):
        with pytest.raises(ServiceError):
            _seed_bytes(3.14)

    @pytest.mark.parametrize("seed", [True, False])
    def test_bool_is_not_an_integer_seed(self, seed):
        """``True == 1``: accepting it would derive seed 1's key."""
        with pytest.raises(ServiceError) as excinfo:
            _seed_bytes(seed)
        assert excinfo.value.code == "service"


#: Wire values that are not integers: each must be refused with code
#: ``service``, not coerced (``int(1.5) == 1``, ``int("12") == 12``,
#: ``True == 1``) or left to crash as an internal error.
BAD_OPERANDS = [[1.5, 2], [True, 3], [3, False], ["12", 3], ["x", 3],
                [None, 1], [[1], 2]]
BAD_KEYS = [True, 1.5, "12", None]
#: Wire tenants that are not strings (an object or a list is unhashable)
#: and seeds that are booleans: refused with code ``service``.
BAD_TENANTS = [{"nested": "dict"}, ["t"], 1, None]
BAD_SEEDS = [True, False]


class TestServiceSurface:
    def test_duplicate_tenant_names_rejected(self, toy):
        configs = [TenantConfig("same"), TenantConfig("same")]
        with pytest.raises(ServiceError):
            KeyExchangeService(toy, configs)

    def test_unknown_tenant_and_bad_ops_are_service_errors(self, toy):
        async def main():
            config = TenantConfig("t", engine="aot")
            async with KeyExchangeService(toy, [config]) as service:
                with pytest.raises(ServiceError):
                    await service.keygen("ghost", 1)
                with pytest.raises(ServiceError):
                    await service.field_op("t", "div", [1, 2])
                with pytest.raises(ServiceError):
                    await service.field_op("t", ["mul"], [1, 2])
                with pytest.raises(ServiceError):
                    await service.field_op("t", "mul", [1, 2, 3])
                with pytest.raises(ServiceError):
                    await service.exchange("t", 1, "not-a-coeff")

        asyncio.run(main())

    @pytest.mark.parametrize("operands", BAD_OPERANDS)
    def test_field_op_accepts_only_int_operands(self, toy, operands):
        async def main():
            config = TenantConfig("t", engine="aot")
            async with KeyExchangeService(toy, [config]) as service:
                with pytest.raises(ServiceError) as excinfo:
                    await service.field_op("t", "mul", operands)
                assert excinfo.value.code == "service"

        asyncio.run(main())

    @pytest.mark.parametrize("key", BAD_KEYS)
    def test_exchange_and_verify_accept_only_int_keys(self, toy, key):
        async def main():
            config = TenantConfig("t", engine="aot")
            async with KeyExchangeService(toy, [config]) as service:
                with pytest.raises(ServiceError) as excinfo:
                    await service.exchange("t", 1, key)
                assert excinfo.value.code == "service"
                with pytest.raises(ServiceError) as excinfo:
                    await service.verify("t", key)
                assert excinfo.value.code == "service"

        asyncio.run(main())

    @pytest.mark.parametrize("tenant", BAD_TENANTS)
    def test_non_string_tenants_are_service_errors(self, toy, tenant):
        async def main():
            config = TenantConfig("t", engine="aot")
            async with KeyExchangeService(toy, [config]) as service:
                calls = [service.keygen(tenant, 1),
                         service.exchange(tenant, 1, 0),
                         service.verify(tenant, 0),
                         service.field_op(tenant, "mul", [1, 2])]
                for call in calls:
                    with pytest.raises(ServiceError) as excinfo:
                        await call
                    assert excinfo.value.code == "service"

        asyncio.run(main())

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_keygen_and_exchange_refuse_bool_seeds(self, toy, seed):
        async def main():
            config = TenantConfig("t", engine="aot")
            async with KeyExchangeService(toy, [config]) as service:
                with pytest.raises(ServiceError) as excinfo:
                    await service.keygen("t", seed)
                assert excinfo.value.code == "service"
                with pytest.raises(ServiceError) as excinfo:
                    await service.exchange("t", seed, 0)
                assert excinfo.value.code == "service"

        asyncio.run(main())

    def test_closed_service_refuses_requests(self, toy):
        async def main():
            service = KeyExchangeService(
                toy, [TenantConfig("t", engine="aot")])
            await service.aclose()
            with pytest.raises(ServiceError):
                await service.keygen("t", 1)
            with pytest.raises(ServiceError):
                await service.field_op("t", "mul", [1, 2])

        asyncio.run(main())

    def test_verify_accepts_good_and_rejects_bad_keys(self, toy):
        async def main():
            config = TenantConfig("t", engine="aot")
            async with KeyExchangeService(toy, [config]) as service:
                public = await service.keygen("t", 42)
                assert await service.verify("t", public) is True
                # 2 is not a supersingular coefficient for the toy p
                assert await service.verify("t", 2) is False

        asyncio.run(main())


class TestWireLayer:
    def test_error_class_resolves_stable_codes(self):
        assert _error_class("admission") is AdmissionError
        assert _error_class("service") is ServiceError
        assert _error_class("no-such-code") is ServiceError

    def test_full_roundtrip_over_tcp(self, toy):
        async def main():
            config = TenantConfig("t", engine="aot", lanes=2)
            service = KeyExchangeService(toy, [config])
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            async with ServiceClient() as client:
                await client.connect("127.0.0.1", port)
                assert await client.ping() == "pong"
                public = await client.keygen("t", 11)
                secret_ab = await client.exchange("t", 12, public)
                public_b = await client.keygen("t", 12)
                secret_ba = await client.exchange("t", 11, public_b)
                assert secret_ab == secret_ba
                assert await client.verify("t", public) is True
                assert await client.field_op("t", "mul", [7, 9]) == 63
                stats = await client.stats()
                assert stats["tenants"]["t"]["engine"] == "aot"
                # errors come back typed with their stable code
                with pytest.raises(ServiceError) as excinfo:
                    await client.keygen("ghost", 1)
                assert excinfo.value.code == "service"
                assert not isinstance(excinfo.value, AdmissionError)
            server.close()
            await server.wait_closed()
            await service.aclose()

        asyncio.run(main())

    def test_retired_op_is_refused_in_band(self, toy):
        """A client still sending the retired ``trace_export`` op gets
        an in-band ``service`` error, and its connection keeps
        serving."""
        async def main():
            service = KeyExchangeService(
                toy, [TenantConfig("t", engine="aot")])
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            responses = []
            for request in ({"id": 1, "op": "trace_export"},
                            {"id": 2, "op": "ping"}):
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.aclose()
            return responses

        refused, pong = asyncio.run(main())
        assert refused["id"] == 1
        assert refused["ok"] is False
        assert refused["code"] == "service"
        assert "trace_export" in refused["error"]
        assert pong["id"] == 2
        assert pong["ok"] is True
        assert pong["result"] == "pong"

    def test_bad_wire_operands_are_service_errors(self, toy):
        async def main():
            config = TenantConfig("t", engine="aot")
            service = KeyExchangeService(toy, [config])
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            codes = []
            with telemetry.capture() as cap:
                async with ServiceClient() as client:
                    await client.connect("127.0.0.1", port)
                    calls = [client.field_op("t", "mul", operands)
                             for operands in BAD_OPERANDS]
                    calls.append(client.field_op("t", ["mul"], [1, 2]))
                    calls += [client.exchange("t", 1, key)
                              for key in BAD_KEYS]
                    calls += [client.verify("t", key) for key in BAD_KEYS]
                    for call in calls:
                        with pytest.raises(ServiceError) as excinfo:
                            await call
                        codes.append(excinfo.value.code)
                    # the connection keeps serving good requests
                    assert await client.field_op("t", "mul", [6, 7]) == 42
                internal = cap.registry.counter(
                    "service_internal_errors_total").total()
            server.close()
            await server.wait_closed()
            await service.aclose()
            return codes, internal

        codes, internal = asyncio.run(main())
        assert codes == ["service"] * (len(BAD_OPERANDS) + 1
                                       + 2 * len(BAD_KEYS))
        assert internal == 0

    def test_bad_wire_tenants_and_seeds_are_service_errors(self, toy):
        async def main():
            config = TenantConfig("t", engine="aot")
            service = KeyExchangeService(toy, [config])
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            codes = []
            with telemetry.capture() as cap:
                async with ServiceClient() as client:
                    await client.connect("127.0.0.1", port)
                    calls = [client.keygen(tenant, 1)
                             for tenant in BAD_TENANTS]
                    calls += [client.field_op(tenant, "mul", [1, 2])
                              for tenant in BAD_TENANTS]
                    calls += [client.keygen("t", seed)
                              for seed in BAD_SEEDS]
                    calls += [client.exchange("t", seed, 0)
                              for seed in BAD_SEEDS]
                    for call in calls:
                        with pytest.raises(ServiceError) as excinfo:
                            await call
                        codes.append(excinfo.value.code)
                    # the connection keeps serving good requests
                    assert await client.field_op("t", "mul", [6, 7]) == 42
                internal = cap.registry.counter(
                    "service_internal_errors_total").total()
            server.close()
            await server.wait_closed()
            await service.aclose()
            return codes, internal

        codes, internal = asyncio.run(main())
        assert codes == ["service"] * (2 * len(BAD_TENANTS)
                                       + 2 * len(BAD_SEEDS))
        assert internal == 0

    def test_malformed_lines_get_in_band_errors(self, toy):
        async def main():
            config = TenantConfig("t", engine="aot")
            service = KeyExchangeService(toy, [config])
            server = await start_server(service)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"this is not json\n")
            writer.write(b'[1, 2, 3]\n')
            writer.write(json.dumps(
                {"id": 9, "op": "teleport"}).encode() + b"\n")
            await writer.drain()
            responses = [json.loads(await reader.readline())
                         for _ in range(3)]
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.aclose()
            return responses

        responses = asyncio.run(main())
        assert all(not r["ok"] for r in responses)
        assert responses[0]["code"] == "service"
        assert responses[1]["code"] == "service"
        by_id = [r for r in responses if r["id"] == 9]
        assert by_id and "teleport" in by_id[0]["error"]


class TestDirectFieldPath:
    def test_field_ops_never_enter_kernel_runner_run(self, toy,
                                                     monkeypatch):
        """A coalesced field op on an aot tenant calls its fused thunk
        directly: with :meth:`KernelRunner.run` made to raise, every
        op still resolves to the pure-Python value."""

        def refuse(self, *args, **kwargs):
            raise AssertionError("field op entered KernelRunner.run")

        monkeypatch.setattr(KernelRunner, "run", refuse)
        reference = FieldContext(toy.p)
        a, b = toy.p - 3, toy.p // 3

        async def main():
            config = TenantConfig("t", engine="aot")
            async with KeyExchangeService(toy, [config]) as service:
                values = {op: await service.field_op("t", op, operands)
                          for op, operands in (("mul", [a, b]),
                                               ("sqr", [a]),
                                               ("add", [a, b]),
                                               ("sub", [b, a]))}
                return values, service.stats()["tenants"]["t"]

        values, tenant = asyncio.run(main())
        assert values == {"mul": reference.mul(a, b),
                          "sqr": reference.sqr(a),
                          "add": reference.add(a, b),
                          "sub": reference.sub(b, a)}
        assert tenant["engine"] == "aot"
        assert tenant["demotions"] == 0


class TestCli:
    def test_load_subcommand_runs_and_appends_bench(self, tmp_path,
                                                    capsys):
        bench = tmp_path / "BENCH_service.json"
        exit_code = main([
            "load", "--params", "toy", "--exchanges", "2",
            "--concurrency", "2", "--tenants", "1", "--engine",
            "aot", "--bench-out", str(bench),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "0 divergences" in captured.out
        document = json.loads(bench.read_text())
        assert document["benchmark"] == "protocol"
        record = document["runs"][-1]
        assert record["mode"] == "service_load"
        assert record["exchanges"] == 2
        assert record["divergences"] == 0
        assert record["requests"] == 8
        assert record["latency_p99_ms"] >= record["latency_p50_ms"]

    def test_load_rejects_bad_knobs(self):
        assert main(["load", "--params", "toy",
                     "--exchanges", "0"]) == 2
        assert main(["load", "--params", "toy",
                     "--concurrency", "0"]) == 2

    def test_service_commands_refuse_full_size_params(self, capsys):
        # refused on the default aot engine too: every tenant ladder
        # can demote to the interpreter
        for argv in (["load", "--params", "csidh-512", "--exchanges", "1"],
                     ["serve", "--params", "csidh-512"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "--params toy" in err
            assert len(err.strip().splitlines()) == 1

    def test_parser_wires_serve_and_load(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--params", "toy", "--port", "7007"])
        assert args.port == 7007
        assert args.engine == "aot"
        args = parser.parse_args(
            ["load", "--params", "toy", "--hardened"])
        assert args.hardened is True
        assert args.exchanges == 100
        assert args.concurrency == 16
