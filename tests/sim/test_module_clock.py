"""Module hierarchy."""

from repro.sim.module import Module


class TestModule:
    def test_hierarchical_path(self, sim):
        top = Module(sim, "top")
        child = Module(sim, "dev0", parent=top)
        leaf = Module(sim, "rf", parent=child)
        assert leaf.path == "top.dev0.rf"

    def test_signal_names_carry_path(self, sim):
        top = Module(sim, "top")
        sig = top.signal("enable", False)
        assert sig.name == "top.enable"
