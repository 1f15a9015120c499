"""Tests for the multi-agent edge-server scalability study."""

import pytest


class TestRunScalability:
    @pytest.mark.timeout(600)
    def test_renders_only_in_the_agent_phase(self, render_calls):
        """Every prefix fleet is settled from truth carried on the forked
        agent runs: the study renders max(agent_counts) x n_frames frames,
        not once more per settled prefix."""
        from repro.core import DiVEScheme
        from repro.experiments import ExperimentConfig, run_scalability

        rows = run_scalability(
            ExperimentConfig(n_frames=4), agent_counts=(1, 2, 3),
            scheme_factories=(DiVEScheme,))
        assert [r.n_agents for r in rows] == [1, 2, 3]
        assert len(render_calls) == 3 * 4
