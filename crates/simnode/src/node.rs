//! The assembled server node.
//!
//! A [`Node`] wires together the CPU, fan, thermal network, ADT7467 fan
//! controller (behind the i2c bus), thermal sensor, power meter and fault
//! plan, and advances them in lockstep from a fixed-width tick loop.
//!
//! The node exposes exactly the two control paths the paper's software uses:
//!
//! * **out-of-band**: SMBus register transactions to the ADT7467
//!   ([`Node::smbus_read`] / [`Node::smbus_write`]) — the fan driver path,
//! * **in-band**: cpufreq-style frequency requests
//!   ([`Node::set_frequency_khz`]) and the lm-sensors-style sensor read
//!   ([`Node::read_sensor`]).
//!
//! Everything else (die temperature, fan RPM, power draw) is physics that
//! control software can only influence through those two paths, just like on
//! the real machine.

use serde::{Deserialize, Serialize};

use crate::adt7467::Adt7467;
use crate::config::NodeConfig;
use crate::cpu::{Cpu, InvalidFrequency, ThermalCondition};
use crate::fan::Fan;
use crate::faults::{FaultEvent, FaultPlan, TickFaultSchedule};
use crate::i2c::{I2cBus, I2cError};
use crate::power::PowerMeter;
use crate::sensor::{SensorDropout, ThermalSensor};
use crate::thermal::ThermalModel;
use crate::units::{DutyCycle, MilliCelsius};

/// The 7-bit i2c address the ADT7467 occupies on the paper's motherboard
/// (the dBCool family responds at 0x2C–0x2E; we use 0x2E).
pub const ADT7467_ADDR: u8 = 0x2E;

/// Wall-meter sampling period in seconds (the Watts up? Pro samples at 1 Hz).
const METER_PERIOD_S: f64 = 1.0;

/// A point-in-time snapshot of the observable node state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeState {
    /// Simulation time in seconds.
    pub time_s: f64,
    /// True die temperature in °C (ground truth; controllers see the sensor).
    pub die_temp_c: f64,
    /// Heatsink temperature in °C.
    pub sink_temp_c: f64,
    /// Commanded fan duty cycle.
    pub fan_duty: DutyCycle,
    /// Actual fan speed in RPM.
    pub fan_rpm: f64,
    /// Effective CPU frequency in MHz (0 when shut down).
    pub freq_mhz: u32,
    /// CPU utilization in `[0, 1]`.
    pub utilization: f64,
    /// Instantaneous wall power in W.
    pub wall_power_w: f64,
    /// Hardware thermal-monitor condition.
    pub condition: ThermalCondition,
}

/// A simulated server node.
#[derive(Debug)]
pub struct Node {
    pub(crate) cfg: NodeConfig,
    pub(crate) cpu: Cpu,
    pub(crate) fan: Fan,
    pub(crate) thermal: ThermalModel,
    /// One DTS per core (index 0 is the coolest spot, the last the
    /// hottest); the paper's platform has exactly one.
    sensors: Vec<ThermalSensor>,
    pub(crate) bus: I2cBus,
    pub(crate) meter: PowerMeter,
    faults: FaultPlan,
    /// Tick-addressed faults (deterministic replay); delivered before the
    /// time-addressed plan within a tick.
    tick_faults: TickFaultSchedule,
    /// Every fault actually delivered, with the tick it landed on.
    /// Pre-reserved to the total scheduled count so steady-state ticks
    /// never allocate.
    fault_log: Vec<(u64, FaultEvent)>,
    pub(crate) time_s: f64,
    pub(crate) ticks: u64,
}

impl Node {
    /// Builds a node from the configuration, pre-warmed to its idle
    /// operating point (CPU idle at top frequency, ADT7467 in automatic
    /// mode, thermal network settled).
    pub fn new(cfg: NodeConfig, seed: u64) -> Self {
        Self::with_faults(cfg, seed, FaultPlan::none())
    }

    /// Builds a node with a fault-injection plan.
    pub fn with_faults(cfg: NodeConfig, seed: u64, faults: FaultPlan) -> Self {
        cfg.validate();
        let cpu = Cpu::new(cfg.cpu.clone());
        let chip = Adt7467::new();

        // Find the idle fixed point of (temperature, auto-curve duty):
        // iterate the steady-state map a few times; it is a contraction.
        let idle_power = cpu.power_w(cfg.thermal.ambient_c + 15.0);
        let mut duty = chip.commanded_duty();
        let thermal_probe = ThermalModel::new(cfg.thermal.clone());
        for _ in 0..8 {
            let (die, _) = thermal_probe.steady_state(idle_power, duty.fraction());
            duty = chip.static_curve_duty(die);
        }
        let (die, _) = thermal_probe.steady_state(idle_power, duty.fraction());

        let thermal =
            ThermalModel::new_at_steady_state(cfg.thermal.clone(), idle_power, duty.fraction());
        let fan = Fan::new_at_duty(cfg.fan.clone(), duty);
        let mut chip = chip;
        chip.set_measured_temp_c(die);

        let mut bus = I2cBus::new();
        bus.attach(ADT7467_ADDR, Box::new(chip));

        let sensors = (0..cfg.sensor.count)
            .map(|i| {
                let mut per_sensor = cfg.sensor.clone();
                // Per-sensor hot-spot offset: sensor i sits i/(count−1) of
                // the spread above the lumped die temperature.
                if cfg.sensor.count > 1 {
                    per_sensor.offset_c +=
                        cfg.sensor.core_spread_c * i as f64 / (cfg.sensor.count - 1) as f64;
                }
                ThermalSensor::new(
                    per_sensor,
                    seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407),
                )
            })
            .collect();
        let meter = PowerMeter::new(cfg.board.psu_efficiency, METER_PERIOD_S);

        let fault_log = Vec::with_capacity(faults.len());
        Self {
            cfg,
            cpu,
            fan,
            thermal,
            sensors,
            bus,
            meter,
            faults,
            tick_faults: TickFaultSchedule::none(),
            fault_log,
            time_s: 0.0,
            ticks: 0,
        }
    }

    /// Attaches a tick-addressed fault schedule (deterministic replay).
    /// Within a tick these deliver before the time-addressed plan.
    ///
    /// # Panics
    /// Panics if the node has already ticked — a schedule attached
    /// mid-flight would not replay deterministically.
    pub fn set_tick_faults(&mut self, schedule: TickFaultSchedule) {
        assert_eq!(self.ticks, 0, "tick faults must be attached before the first tick");
        self.fault_log.reserve(schedule.len());
        self.tick_faults = schedule;
    }

    /// Simulation time in seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Ticks elapsed (the first [`Node::tick`] call is tick 1).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Every fault delivered so far, with the tick each landed on.
    pub fn fault_log(&self) -> &[(u64, FaultEvent)] {
        &self.fault_log
    }

    /// True when this node has any scheduled fault sources (time- or
    /// tick-addressed). A batched simulation lists such nodes per shard and
    /// checks only them for [`Node::has_fault_due`] each tick; delivery
    /// itself always goes through [`Node::deliver_due_faults`].
    pub fn has_fault_sources(&self) -> bool {
        !self.faults.is_empty() || !self.tick_faults.is_empty()
    }

    /// True when a fault is due on tick `tick` at time `time_s` — the
    /// values [`Node::tick`] would hold after its prologue. Lets a batched
    /// owner, whose lanes carry the live tick counter, skip the store →
    /// deliver → load sync on the (usual) ticks where nothing lands.
    pub fn has_fault_due(&self, tick: u64, time_s: f64) -> bool {
        self.tick_faults.is_due(tick) || self.faults.is_due(time_s)
    }

    /// Delivers every fault due at the node's current tick and time:
    /// tick-addressed events first, then the time-addressed plan, each
    /// logged with the tick it landed on. [`Node::tick`] calls this right
    /// after advancing its counters; a batched owner calls it between
    /// storing a slot and loading it back. Allocation-free.
    pub fn deliver_due_faults(&mut self) {
        while let Some(ev) = self.tick_faults.pop_due(self.ticks) {
            self.apply_fault(ev);
        }
        while let Some(ev) = self.faults.pop_due(self.time_s) {
            self.apply_fault(ev);
        }
    }

    /// Configuration the node was built from.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Advances the node by `dt_s` seconds.
    ///
    /// Order per tick: deliver due faults → fan controller evaluates (the
    /// chip sees the die temperature through its remote diode) → fan rotor
    /// dynamics → CPU heat into the thermal network → hardware thermal
    /// monitor → power metering.
    pub fn tick(&mut self, dt_s: f64) {
        assert!(dt_s > 0.0, "time step must be positive");
        self.ticks += 1;
        self.time_s += dt_s;
        self.deliver_due_faults();

        // The chip's remote diode tracks the die continuously.
        let die = self.thermal.die_temp_c();
        if let Some(chip) = self.bus.device_mut::<Adt7467>(ADT7467_ADDR) {
            chip.set_measured_temp_c(die);
            self.fan.set_duty(chip.commanded_duty());
        }
        self.fan.step(dt_s);

        let cpu_power = self.cpu.power_w(die);
        self.thermal.step(dt_s, cpu_power, self.fan.airflow());
        self.cpu.update_thermal_monitor(self.thermal.die_temp_c());

        let dc_power = cpu_power + self.fan.power_w() + self.cfg.board.base_power_w;
        self.meter.observe(dt_s, dc_power);
    }

    fn apply_fault(&mut self, ev: FaultEvent) {
        self.fault_log.push((self.ticks, ev));
        match ev {
            FaultEvent::FanFailure => self.fan.fail(),
            FaultEvent::FanRepair => self.fan.repair(),
            // Sensor dropouts model the polling path failing (bus or hub),
            // which takes every DTS with it.
            FaultEvent::SensorDropout => self.sensors.iter_mut().for_each(|s| s.drop_out()),
            FaultEvent::SensorRestore => self.sensors.iter_mut().for_each(|s| s.restore()),
            FaultEvent::I2cFailure => self.bus.inject_nack(ADT7467_ADDR, true),
            FaultEvent::I2cRecovery => self.bus.inject_nack(ADT7467_ADDR, false),
            FaultEvent::AmbientStep(t) => self.thermal.set_ambient_c(t),
            FaultEvent::PwmStuck => self.fan.stick_pwm(),
            FaultEvent::PwmRelease => self.fan.release_pwm(),
            FaultEvent::SensorJitter(std) => {
                self.sensors.iter_mut().for_each(|s| s.set_extra_jitter(std));
            }
        }
    }

    // ---- in-band control path (cpufreq / lm-sensors style) ----

    /// Reads the primary die thermal sensor (noisy, quantized), as
    /// lm-sensors would.
    pub fn read_sensor(&mut self) -> Result<MilliCelsius, SensorDropout> {
        self.read_sensor_at(0)
    }

    /// Number of on-die thermal sensors.
    pub fn sensor_count(&self) -> usize {
        self.sensors.len()
    }

    /// Reads sensor `idx` (0-based).
    ///
    /// # Panics
    /// Panics if `idx` is out of range — enumerate with
    /// [`Node::sensor_count`] first; a wrong index is a driver bug.
    pub fn read_sensor_at(&mut self, idx: usize) -> Result<MilliCelsius, SensorDropout> {
        let die = self.thermal.die_temp_c();
        let n = self.sensors.len();
        self.sensors
            .get_mut(idx)
            .unwrap_or_else(|| panic!("sensor index {idx} out of range (count {n})"))
            .read(die)
    }

    /// Reads every sensor and returns the hottest reading — the aggregation
    /// thermal controllers should act on for multi-core parts. Fails only
    /// when *no* sensor responds.
    pub fn read_hottest_sensor(&mut self) -> Result<MilliCelsius, SensorDropout> {
        let die = self.thermal.die_temp_c();
        self.sensors.iter_mut().filter_map(|s| s.read(die).ok()).max().ok_or(SensorDropout)
    }

    /// Available DVFS frequencies in kHz, descending (cpufreq
    /// `scaling_available_frequencies`).
    pub fn available_frequencies_khz(&self) -> Vec<u32> {
        self.cpu.pstates().iter().map(|p| p.freq_khz()).collect()
    }

    /// Requests a DVFS frequency in kHz (cpufreq `scaling_setspeed`).
    pub fn set_frequency_khz(&mut self, khz: u32) -> Result<bool, InvalidFrequency> {
        self.cpu.set_frequency_mhz(khz / 1000)
    }

    /// Sets the CPU's ACPI sleep-state gate (1.0 = C0 fully awake; lower
    /// models deeper processor sleep). The in-band path an ACPI sleep
    /// daemon actuates through.
    pub fn set_sleep_gate(&mut self, gate: f64) {
        self.cpu.set_sleep_gate(gate);
    }

    /// Currently requested frequency in kHz (cpufreq `scaling_cur_freq`
    /// reports the governor request; hardware throttling is separate).
    pub fn requested_frequency_khz(&self) -> u32 {
        self.cpu.requested_pstate().freq_khz()
    }

    /// CPU utilization over the last tick, `[0, 1]` — what a daemon would
    /// derive from `/proc/stat`.
    pub fn utilization(&self) -> f64 {
        self.cpu.utilization()
    }

    // ---- out-of-band control path (i2c fan driver style) ----

    /// SMBus byte read from a device on the node's i2c bus.
    pub fn smbus_read(&mut self, addr: u8, reg: u8) -> Result<u8, I2cError> {
        self.bus.read_byte(addr, reg)
    }

    /// SMBus byte write to a device on the node's i2c bus.
    pub fn smbus_write(&mut self, addr: u8, reg: u8, value: u8) -> Result<(), I2cError> {
        self.bus.write_byte(addr, reg, value)
    }

    // ---- workload / simulator-internal access ----

    /// Sets CPU utilization for the next tick (driven by the workload
    /// model); activity follows utilization.
    pub fn set_utilization(&mut self, u: f64) {
        self.cpu.set_utilization(u);
    }

    /// Sets utilization and switching activity separately.
    pub fn set_load(&mut self, utilization: f64, activity: f64) {
        self.cpu.set_load(utilization, activity);
    }

    /// Relative execution speed vs. the top P-state (workload progress
    /// multiplier; 0 when shut down or 0 % utilization makes no progress
    /// anyway).
    pub fn speed_factor(&self) -> f64 {
        self.cpu.speed_factor()
    }

    /// Direct CPU access for metrics (transition counts, condition).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Direct fan access for metrics (RPM, failure state).
    pub fn fan(&self) -> &Fan {
        &self.fan
    }

    /// Power meter access for Table-1 style reporting.
    pub fn meter(&self) -> &PowerMeter {
        &self.meter
    }

    /// Ground-truth die temperature (for plots; controllers must use
    /// [`Node::read_sensor`]).
    pub fn die_temp_c(&self) -> f64 {
        self.thermal.die_temp_c()
    }

    /// Current intake-air (ambient) temperature, °C.
    pub fn ambient_c(&self) -> f64 {
        self.thermal.ambient_c()
    }

    /// Sets the intake-air temperature — driven by rack-level air models
    /// (recirculation coupling) or fault plans (HVAC events).
    pub fn set_ambient_c(&mut self, ambient_c: f64) {
        self.thermal.set_ambient_c(ambient_c);
    }

    /// Heat currently dissipated into the air by this node, W (DC side:
    /// CPU + fan + board; PSU losses are dumped at the wall, outside the
    /// rack airflow model's control volume).
    pub fn heat_output_w(&self) -> f64 {
        self.cpu.power_w(self.thermal.die_temp_c())
            + self.fan.power_w()
            + self.cfg.board.base_power_w
    }

    /// Instantaneous wall power in W.
    pub fn wall_power_w(&self) -> f64 {
        let dc = self.cpu.power_w(self.thermal.die_temp_c())
            + self.fan.power_w()
            + self.cfg.board.base_power_w;
        dc / self.cfg.board.psu_efficiency
    }

    /// Full observable state snapshot.
    pub fn state(&self) -> NodeState {
        NodeState {
            time_s: self.time_s,
            die_temp_c: self.thermal.die_temp_c(),
            sink_temp_c: self.thermal.sink_temp_c(),
            fan_duty: self.fan.duty(),
            fan_rpm: self.fan.rpm(),
            freq_mhz: self.cpu.effective_freq_mhz(),
            utilization: self.cpu.utilization(),
            wall_power_w: self.wall_power_w(),
            condition: self.cpu.condition(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adt7467::{regs, PwmMode};

    fn node() -> Node {
        Node::new(NodeConfig::default(), 7)
    }

    fn run(node: &mut Node, seconds: f64) {
        let dt = 0.05;
        let steps = (seconds / dt).round() as usize;
        for _ in 0..steps {
            node.tick(dt);
        }
    }

    #[test]
    fn starts_settled_at_idle() {
        let mut n = node();
        let t0 = n.die_temp_c();
        run(&mut n, 60.0);
        assert!(
            (n.die_temp_c() - t0).abs() < 1.5,
            "idle node should stay settled: {t0} → {}",
            n.die_temp_c()
        );
        assert!((30.0..45.0).contains(&t0), "idle operating point {t0}");
    }

    #[test]
    fn auto_fan_responds_to_load() {
        let mut n = node();
        let duty0 = n.state().fan_duty;
        n.set_utilization(1.0);
        run(&mut n, 300.0);
        let s = n.state();
        assert!(s.die_temp_c > 45.0, "loaded die heats up: {}", s.die_temp_c);
        assert!(s.fan_duty > duty0, "auto mode speeds the fan up: {} → {}", duty0, s.fan_duty);
    }

    #[test]
    fn auto_fan_keeps_burn_out_of_emergency() {
        // The stock automatic curve must hold cpu-burn below the 70 °C
        // hardware throttle (it ramps to 100 % duty well before that).
        let mut n = node();
        n.set_utilization(1.0);
        run(&mut n, 600.0);
        assert!(n.die_temp_c() < 70.0, "auto-controlled burn at {}", n.die_temp_c());
        assert_eq!(n.cpu().throttle_event_count(), 0);
    }

    #[test]
    fn manual_stalled_fan_burn_throttles_then_shuts_down() {
        let mut n = node();
        // Switch chip to manual, command a duty below the stall threshold
        // (the rotor stops) and run cpu-burn: the die runs away, the
        // hardware monitor throttles — and with only natural convection even
        // the lowest P-state cannot dissipate the heat, so the node
        // ultimately shuts down. This is the "loss of availability" failure
        // mode the paper's introduction warns about.
        n.smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 1).unwrap();
        n.smbus_write(ADT7467_ADDR, regs::PWM_CURRENT, DutyCycle::new(2).to_register()).unwrap();
        n.set_utilization(1.0);
        run(&mut n, 900.0);
        assert!(n.cpu().throttle_event_count() > 0, "expected a thermal emergency");
        assert!(n.cpu().is_shut_down(), "dead fan under sustained burn is fatal");
        assert_eq!(n.state().condition, ThermalCondition::ShutDown);
        // A shut-down node cools back toward ambient.
        assert!(n.die_temp_c() < 70.0, "cooling after shutdown: {}", n.die_temp_c());
    }

    #[test]
    fn smbus_path_controls_fan() {
        let mut n = node();
        n.smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 1).unwrap();
        n.smbus_write(ADT7467_ADDR, regs::PWM_CURRENT, DutyCycle::new(80).to_register()).unwrap();
        run(&mut n, 10.0);
        assert_eq!(n.state().fan_duty.percent(), 80);
        assert!((n.state().fan_rpm - 0.8 * 4300.0).abs() < 50.0);
        let mode = n.smbus_read(ADT7467_ADDR, regs::PWM_CONFIG).unwrap();
        assert_eq!(mode, 1);
        let chip_duty = n.smbus_read(ADT7467_ADDR, regs::PWM_CURRENT).unwrap();
        assert_eq!(DutyCycle::from_register(chip_duty).percent(), 80);
    }

    #[test]
    fn cpufreq_path_scales_frequency_and_power() {
        let mut n = node();
        n.set_utilization(1.0);
        run(&mut n, 120.0);
        let hot = n.wall_power_w();
        assert_eq!(
            n.available_frequencies_khz(),
            vec![2_400_000, 2_200_000, 2_000_000, 1_800_000, 1_000_000]
        );
        n.set_frequency_khz(1_000_000).unwrap();
        assert_eq!(n.requested_frequency_khz(), 1_000_000);
        run(&mut n, 120.0);
        let cool = n.wall_power_w();
        assert!(cool < hot - 20.0, "downscaled power {cool} vs {hot}");
        assert!((n.speed_factor() - 1.0 / 2.4).abs() < 1e-9);
        assert!(n.set_frequency_khz(1_234_000).is_err());
    }

    #[test]
    fn sensor_reads_track_die() {
        let mut n = node();
        n.set_utilization(1.0);
        run(&mut n, 200.0);
        let reading = n.read_sensor().unwrap().to_celsius();
        assert!((reading - n.die_temp_c()).abs() < 2.0);
    }

    #[test]
    fn fan_failure_causes_runaway_and_throttle() {
        let faults = FaultPlan::none().at(10.0, FaultEvent::FanFailure);
        let mut n = Node::with_faults(NodeConfig::default(), 3, faults);
        n.set_utilization(1.0);
        run(&mut n, 600.0);
        assert!(n.fan().is_failed());
        assert_eq!(n.state().fan_rpm, 0.0);
        assert!(
            n.cpu().throttle_event_count() > 0,
            "dead fan under burn must trigger the thermal monitor (T={})",
            n.die_temp_c()
        );
    }

    #[test]
    fn sensor_dropout_fault_blocks_reads() {
        let faults =
            FaultPlan::none().at(1.0, FaultEvent::SensorDropout).at(2.0, FaultEvent::SensorRestore);
        let mut n = Node::with_faults(NodeConfig::default(), 3, faults);
        run(&mut n, 1.5);
        assert!(n.read_sensor().is_err());
        run(&mut n, 1.0);
        assert!(n.read_sensor().is_ok());
    }

    #[test]
    fn i2c_fault_blocks_smbus() {
        let faults = FaultPlan::none().at(1.0, FaultEvent::I2cFailure);
        let mut n = Node::with_faults(NodeConfig::default(), 3, faults);
        run(&mut n, 2.0);
        assert!(matches!(
            n.smbus_read(ADT7467_ADDR, regs::PWM_CURRENT),
            Err(I2cError::Nack { .. })
        ));
    }

    #[test]
    fn ambient_step_heats_node() {
        let faults = FaultPlan::none().at(5.0, FaultEvent::AmbientStep(35.0));
        let mut n = Node::with_faults(NodeConfig::default(), 3, faults);
        let before = n.die_temp_c();
        run(&mut n, 600.0);
        assert!(n.die_temp_c() > before + 5.0, "{} → {}", before, n.die_temp_c());
    }

    #[test]
    fn tick_faults_land_on_their_exact_tick_and_are_logged() {
        let mut n = node();
        n.set_tick_faults(
            TickFaultSchedule::none()
                .at_tick(10, FaultEvent::PwmStuck)
                .at_tick(20, FaultEvent::SensorJitter(1.5))
                .at_tick(30, FaultEvent::PwmRelease),
        );
        for _ in 0..9 {
            n.tick(0.05);
        }
        assert!(!n.fan().is_pwm_stuck(), "nothing delivered before tick 10");
        assert!(n.fault_log().is_empty());
        n.tick(0.05);
        assert!(n.fan().is_pwm_stuck(), "PwmStuck delivered on tick 10 exactly");
        assert_eq!(n.fault_log(), &[(10, FaultEvent::PwmStuck)]);
        for _ in 0..20 {
            n.tick(0.05);
        }
        assert!(!n.fan().is_pwm_stuck(), "released on tick 30");
        assert_eq!(n.ticks(), 30);
        assert_eq!(
            n.fault_log(),
            &[
                (10, FaultEvent::PwmStuck),
                (20, FaultEvent::SensorJitter(1.5)),
                (30, FaultEvent::PwmRelease),
            ]
        );
    }

    #[test]
    fn tick_faults_deliver_before_time_faults_within_a_tick() {
        // Both address the same tick (tick 5 = 0.25 s); the log shows the
        // tick-addressed event first.
        let faults = FaultPlan::none().at(0.25, FaultEvent::FanFailure);
        let mut n = Node::with_faults(NodeConfig::default(), 3, faults);
        n.set_tick_faults(TickFaultSchedule::none().at_tick(5, FaultEvent::SensorDropout));
        for _ in 0..5 {
            n.tick(0.05);
        }
        assert_eq!(n.fault_log(), &[(5, FaultEvent::SensorDropout), (5, FaultEvent::FanFailure)]);
    }

    #[test]
    #[should_panic(expected = "before the first tick")]
    fn tick_faults_rejected_after_first_tick() {
        let mut n = node();
        n.tick(0.05);
        n.set_tick_faults(TickFaultSchedule::none().at_tick(2, FaultEvent::FanFailure));
    }

    #[test]
    fn sensor_jitter_fault_degrades_then_recovers_readings() {
        let mut a = node();
        let mut b = node();
        b.set_tick_faults(
            TickFaultSchedule::none()
                .at_tick(1, FaultEvent::SensorJitter(5.0))
                .at_tick(50, FaultEvent::SensorJitter(0.0)),
        );
        let mut diverged = false;
        for _ in 0..49 {
            a.tick(0.05);
            b.tick(0.05);
            if a.read_sensor() != b.read_sensor() {
                diverged = true;
            }
        }
        assert!(diverged, "5 °C jitter must perturb readings");
        a.tick(0.05);
        b.tick(0.05);
        // Same seed, same draw count per read: once the jitter clears the
        // two nodes read identically again.
        assert_eq!(a.read_sensor(), b.read_sensor());
    }

    #[test]
    fn wall_power_in_table1_range_under_load() {
        // Table 1 reports ≈ 93–101 W per node for BT; check cpu-burn with a
        // mid fan duty lands in that neighbourhood.
        let mut n = node();
        n.smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 1).unwrap();
        n.smbus_write(ADT7467_ADDR, regs::PWM_CURRENT, DutyCycle::new(50).to_register()).unwrap();
        n.set_utilization(1.0);
        run(&mut n, 400.0);
        let p = n.wall_power_w();
        assert!((85.0..115.0).contains(&p), "loaded wall power {p}");
    }

    #[test]
    fn meter_average_accumulates() {
        let mut n = node();
        n.set_utilization(0.5);
        run(&mut n, 30.0);
        let avg = n.meter().average_power_w();
        assert!(avg > 40.0, "meter average {avg}");
        assert!(n.meter().sample_stats().count() >= 29);
    }

    #[test]
    fn default_chip_mode_is_automatic() {
        let mut n = node();
        let mode = n.smbus_read(ADT7467_ADDR, regs::PWM_CONFIG).unwrap();
        assert_eq!(mode, 0, "chip boots in automatic mode");
        // The fan duty at boot reflects the automatic curve, not a manual
        // command — confirming PwmMode::Automatic semantics end to end.
        let expected = Adt7467::new().static_curve_duty(n.die_temp_c());
        let actual = n.state().fan_duty;
        assert!(
            (i32::from(actual.percent()) - i32::from(expected.percent())).abs() <= 2,
            "boot duty {actual} vs curve {expected} ({:?})",
            PwmMode::Automatic
        );
    }

    #[test]
    fn multi_sensor_hottest_aggregation() {
        let mut cfg = NodeConfig::default();
        cfg.sensor.count = 4;
        cfg.sensor.core_spread_c = 3.0;
        cfg.sensor.noise_std_c = 0.0;
        cfg.sensor.quantization_c = 0.0;
        let mut n = Node::new(cfg, 21);
        assert_eq!(n.sensor_count(), 4);
        let die = n.die_temp_c();
        // Sensor offsets step 0, 1, 2, 3 °C above the lumped die temp.
        for i in 0..4 {
            let r = n.read_sensor_at(i).unwrap().to_celsius();
            assert!((r - (die + i as f64)).abs() < 1e-3, "sensor {i}: {r} vs die {die}");
        }
        let hottest = n.read_hottest_sensor().unwrap().to_celsius();
        assert!((hottest - (die + 3.0)).abs() < 1e-3, "hottest {hottest}");
    }

    #[test]
    fn hottest_survives_partial_information() {
        // With noise the hottest read is max over noisy sensors: it is at
        // least the primary sensor's reading on average.
        let mut cfg = NodeConfig::default();
        cfg.sensor.count = 2;
        let mut n = Node::new(cfg, 22);
        let mut hot_sum = 0.0;
        let mut primary_sum = 0.0;
        for _ in 0..200 {
            n.tick(0.05);
            hot_sum += n.read_hottest_sensor().unwrap().to_celsius();
            primary_sum += n.read_sensor().unwrap().to_celsius();
        }
        assert!(hot_sum > primary_sum, "hottest aggregation must dominate");
    }

    #[test]
    fn sensor_dropout_takes_all_sensors() {
        let mut cfg = NodeConfig::default();
        cfg.sensor.count = 3;
        let faults = FaultPlan::none().at(1.0, FaultEvent::SensorDropout);
        let mut n = Node::with_faults(cfg, 23, faults);
        run(&mut n, 2.0);
        assert!(n.read_hottest_sensor().is_err(), "no sensor should respond");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sensor_index_out_of_range_panics() {
        let mut n = node();
        let _ = n.read_sensor_at(5);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = node();
        let mut b = node();
        a.set_utilization(0.8);
        b.set_utilization(0.8);
        run(&mut a, 50.0);
        run(&mut b, 50.0);
        assert_eq!(a.state(), b.state());
        assert_eq!(a.read_sensor(), b.read_sensor());
    }
}
