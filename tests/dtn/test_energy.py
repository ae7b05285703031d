"""Tests for the radio energy model."""

import math

import pytest

from repro.dtn.energy import BLUETOOTH_CLASS2_MODEL, EnergyModel, EnergyReport
from repro.dtn.simulator import SimulationReport


def report(tx=None, rx=None, contacts=None):
    r = SimulationReport()
    r.tx_bytes_by_node = tx or {}
    r.rx_bytes_by_node = rx or {}
    r.contacts_by_node = contacts or {}
    return r


class TestEnergyModel:
    def test_tx_rx_and_setup_split(self):
        model = EnergyModel(
            tx_j_per_byte=2.0, rx_j_per_byte=1.0, contact_setup_j=10.0
        )
        result = model.evaluate(
            report(tx={0: 5.0}, rx={0: 3.0, 1: 4.0}, contacts={0: 2, 1: 2})
        )
        assert result.per_node_data_j[0] == pytest.approx(5 * 2 + 3 * 1)
        assert result.per_node_data_j[1] == pytest.approx(4 * 1)
        assert result.per_node_setup_j == {0: 20.0, 1: 20.0}
        assert result.per_node_j[0] == pytest.approx(13 + 20)
        assert result.total_j == pytest.approx(17 + 40)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(tx_j_per_byte=-1.0)

    def test_default_model_magnitudes(self):
        """One 140-byte message costs microjoules; a contact setup
        costs tens of millijoules — discovery dominates for small data."""
        per_message = 140 * BLUETOOTH_CLASS2_MODEL.tx_j_per_byte
        assert per_message < BLUETOOTH_CLASS2_MODEL.contact_setup_j


class TestEnergyReport:
    def test_totals(self):
        r = EnergyReport(
            per_node_data_j={0: 1.0, 1: 3.0}, per_node_setup_j={0: 2.0, 1: 2.0}
        )
        assert r.data_j == 4.0
        assert r.setup_j == 4.0
        assert r.total_j == 8.0
        assert r.max_node_j == 5.0
        assert r.mean_node_j() == 4.0

    def test_hotspot_ratio_data_share(self):
        r = EnergyReport(
            per_node_data_j={0: 1.0, 1: 3.0}, per_node_setup_j={0: 5.0, 1: 5.0}
        )
        assert r.hotspot_ratio() == 1.5  # data only
        assert r.hotspot_ratio(data_only=False) == pytest.approx(8.0 / 7.0)

    def test_energy_per_delivery(self):
        r = EnergyReport(per_node_data_j={0: 10.0}, per_node_setup_j={0: 90.0})
        assert r.energy_per_delivery_j(5) == 2.0
        assert r.energy_per_delivery_j(5, data_only=False) == 20.0
        assert math.isnan(r.energy_per_delivery_j(0))

    def test_empty(self):
        r = EnergyReport(per_node_data_j={}, per_node_setup_j={})
        assert r.total_j == 0.0
        assert r.max_node_j == 0.0
        assert math.isnan(r.hotspot_ratio())


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def runs(self):
        from repro.api import ExperimentSpec, run
        from repro.traces.synthetic import haggle_like

        trace = haggle_like(scale=0.03, seed=16)
        spec = ExperimentSpec(ttl_min=600.0, min_rate_per_s=1 / 3600.0)
        return {
            name: run(trace, spec.with_protocol(name))
            for name in ("PUSH", "B-SUB", "PULL")
        }

    def test_per_node_bytes_recorded(self, runs):
        for result in runs.values():
            assert result.engine.tx_bytes_by_node
            assert result.engine.rx_bytes_by_node
            total_tx = sum(result.engine.tx_bytes_by_node.values())
            assert total_tx == pytest.approx(result.engine.bytes_transferred)

    def test_setup_energy_identical_across_protocols(self, runs):
        setups = {
            name: BLUETOOTH_CLASS2_MODEL.evaluate(r.engine).setup_j
            for name, r in runs.items()
        }
        assert len(set(setups.values())) == 1  # same trace, same discovery cost

    def test_push_spends_most_data_energy(self, runs):
        energies = {
            name: BLUETOOTH_CLASS2_MODEL.evaluate(r.engine).data_j
            for name, r in runs.items()
        }
        assert energies["PUSH"] > energies["B-SUB"] > energies["PULL"]

    def test_bsub_data_energy_per_delivery_beats_push(self, runs):
        """The paper's bottom line: similar delivery at much less
        resource consumption."""

        def joules_per_delivery(result):
            energy = BLUETOOTH_CLASS2_MODEL.evaluate(result.engine)
            return energy.energy_per_delivery_j(
                result.summary.num_intended_deliveries
            )

        assert joules_per_delivery(runs["B-SUB"]) < joules_per_delivery(
            runs["PUSH"]
        )

    def test_bsub_concentrates_load_on_brokers(self, runs):
        """B-SUB's hotspot ratio reflects the deliberate broker burden."""
        bsub = BLUETOOTH_CLASS2_MODEL.evaluate(runs["B-SUB"].engine)
        assert bsub.hotspot_ratio() > 1.0
