import speed


def test_speed_factor_scales_to_the_nominal_reference():
    assert speed.speed_factor([0.004, 0.001, 0.002]) == speed.REFERENCE_S / 0.002
    # a machine running at half the nominal speed halves every time
    assert speed.speed_factor([2 * speed.REFERENCE_S]) == 0.5


def test_calibrate_times_the_reference_task():
    samples = speed.calibrate()
    assert len(samples) == speed.SAMPLES
    assert all(s > 0 for s in samples)



def test_calibrate_runs_long_enough():
    samples = speed.calibrate(min_seconds=0.05)
    assert sum(samples) >= 0.05 and len(samples) >= speed.SAMPLES
