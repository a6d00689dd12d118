//! `PpoTrainer::update_on` at paper shape against a dense reference,
//! bit for bit.
//!
//! The reference lives in this file and shares no kernel with the crate: it
//! multiplies all 315 input columns and computes all 315 output rows, takes
//! a full-length masked softmax, and steps `Adam` over parameter and
//! gradient vectors in the public order of `Mlp::parameters`. The trainer
//! learns from episodes of 0/1 states with about 40 members and action
//! masks that shrink as the episode goes on, with masking on and off, at 1
//! and 4 threads, with two hidden layers and with none (where the first
//! layer is also the masked output layer). After every update its snapshot
//! must equal the reference's state in every bit.

use exec::Exec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{Adam, AdamSnapshot, PolicySnapshot, PpoConfig, PpoLosses, PpoTrainer, Transition};

/// Rare nets at paper scale (c2670): the state and action dimension.
const N: usize = 315;

/// A dense network in public order: per layer, the row-major weights
/// `w[o · n_in + i]`, then the biases.
struct DenseNet {
    sizes: Vec<usize>,
    params: Vec<f64>,
    grads: Vec<f64>,
    opt: Adam,
}

impl DenseNet {
    fn new(sizes: &[usize], params: &[f64], opt: &AdamSnapshot) -> Self {
        Self {
            sizes: sizes.to_vec(),
            params: params.to_vec(),
            grads: vec![0.0; params.len()],
            opt: Adam::from_raw_state(opt.learning_rate, opt.m.clone(), opt.v.clone(), opt.steps),
        }
    }

    /// `(n_in, n_out, offset)` of every layer.
    fn layers(&self) -> Vec<(usize, usize, usize)> {
        let mut offset = 0;
        self.sizes
            .windows(2)
            .map(|w| {
                let layer = (w[0], w[1], offset);
                offset += w[0] * w[1] + w[1];
                layer
            })
            .collect()
    }

    /// Every layer's output, the input first.
    fn forward(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let layers = self.layers();
        let mut acts = vec![input.to_vec()];
        for (l, &(n_in, n_out, offset)) in layers.iter().enumerate() {
            let (weights, biases) = self.params[offset..].split_at(n_in * n_out);
            let out = (0..n_out)
                .map(|o| {
                    let mut sum = biases[o];
                    for (w, x) in weights[o * n_in..(o + 1) * n_in].iter().zip(&acts[l]) {
                        sum += w * x;
                    }
                    if l + 1 == layers.len() {
                        sum
                    } else {
                        sum.tanh()
                    }
                })
                .collect();
            acts.push(out);
        }
        acts
    }

    /// Adds one sample's gradients, every row and column of every layer.
    fn backward(&mut self, acts: &[Vec<f64>], grad_output: &[f64]) {
        let layers = self.layers();
        let mut grad = grad_output.to_vec();
        for (l, &(n_in, n_out, offset)) in layers.iter().enumerate().rev() {
            if l + 1 != layers.len() {
                for (g, a) in grad.iter_mut().zip(&acts[l + 1]) {
                    *g *= 1.0 - a * a;
                }
            }
            let weights = &self.params[offset..offset + n_in * n_out];
            let (grad_weights, grad_biases) =
                self.grads[offset..offset + n_in * n_out + n_out].split_at_mut(n_in * n_out);
            let mut below = vec![0.0; n_in];
            for (o, &d) in grad.iter().enumerate() {
                grad_biases[o] += d;
                for i in 0..n_in {
                    grad_weights[o * n_in + i] += d * acts[l][i];
                    if l > 0 {
                        below[i] += d * weights[o * n_in + i];
                    }
                }
            }
            grad = below;
        }
    }

    fn step(&mut self) {
        self.opt.step(&mut self.params, &self.grads);
        self.grads.fill(0.0);
    }
}

/// The reference agent: the trainer's update, written densely.
struct DenseAgent {
    config: PpoConfig,
    policy: DenseNet,
    value: DenseNet,
    total_updates: u64,
    loss_history: Vec<(u64, PpoLosses)>,
}

impl DenseAgent {
    fn new(snapshot: &PolicySnapshot) -> Self {
        Self {
            config: snapshot.config.clone(),
            policy: DenseNet::new(
                &snapshot.policy_layer_sizes,
                &snapshot.policy_params,
                &snapshot.policy_opt,
            ),
            value: DenseNet::new(
                &snapshot.value_layer_sizes,
                &snapshot.value_params,
                &snapshot.value_opt,
            ),
            total_updates: snapshot.total_updates,
            loss_history: snapshot.loss_history.clone(),
        }
    }

    /// Normalized GAE(λ) advantages and discounted returns.
    fn advantages_and_returns(&self, batch: &[Transition]) -> (Vec<f64>, Vec<f64>) {
        let (gamma, lambda) = (self.config.gamma, self.config.gae_lambda);
        let mut advantages = vec![0.0; batch.len()];
        let mut gae = 0.0;
        for i in (0..batch.len()).rev() {
            let t = &batch[i];
            let next_value = if t.done || i + 1 == batch.len() {
                0.0
            } else {
                batch[i + 1].value
            };
            if t.done {
                gae = 0.0;
            }
            let delta = t.reward + gamma * next_value - t.value;
            gae = delta + gamma * lambda * if t.done { 0.0 } else { gae };
            advantages[i] = gae;
        }
        let returns: Vec<f64> = advantages
            .iter()
            .zip(batch)
            .map(|(a, t)| a + t.value)
            .collect();
        let n = advantages.len() as f64;
        let mean = advantages.iter().sum::<f64>() / n;
        let var = advantages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f64>()
            / n;
        let std = var.sqrt().max(1e-8);
        for a in &mut advantages {
            *a = (*a - mean) / std;
        }
        (advantages, returns)
    }

    fn update(&mut self, batch: &[Transition], total_steps: u64) {
        let (advantages, returns) = self.advantages_and_returns(batch);
        let c = self.config.clone();
        let n = batch.len() as f64;
        let (mut policy_loss, mut entropy_loss, mut value_loss) = (0.0, 0.0, 0.0);
        for _ in 0..c.epochs {
            (policy_loss, entropy_loss) = (0.0, 0.0);
            for (t, &adv) in batch.iter().zip(&advantages) {
                let acts = self.policy.forward(&t.state);
                let logits = acts.last().expect("output layer");
                let allowed = |k: usize| t.mask.is_empty() || t.mask[k];
                let max = (0..N)
                    .filter(|&k| allowed(k))
                    .map(|k| logits[k])
                    .fold(f64::NEG_INFINITY, f64::max);
                let mut probs = vec![0.0; N];
                let mut total = 0.0;
                for (k, p) in probs.iter_mut().enumerate() {
                    if allowed(k) {
                        *p = (logits[k] - max).exp();
                        total += *p;
                    }
                }
                probs.iter_mut().for_each(|p| *p /= total);
                let ln = |p: f64| if p > 0.0 { p.ln() } else { f64::NEG_INFINITY };
                let entropy = -probs
                    .iter()
                    .filter(|&&p| p > 0.0)
                    .map(|&p| p * ln(p))
                    .sum::<f64>();
                let ratio = (ln(probs[t.action]) - t.log_prob).exp();
                let clipped = ratio.clamp(1.0 - c.clip_epsilon, 1.0 + c.clip_epsilon);
                let (surr1, surr2) = (ratio * adv, clipped * adv);
                policy_loss += -surr1.min(surr2);
                entropy_loss += -entropy;
                let grad: Vec<f64> = (0..N)
                    .map(|k| {
                        let p = probs[k];
                        let mut g = 0.0;
                        if surr1 <= surr2 {
                            let glp = if k == t.action { 1.0 - p } else { -p };
                            g += -ratio * adv * glp;
                        }
                        let ge = if p > 0.0 { -p * (ln(p) + entropy) } else { 0.0 };
                        g += c.entropy_coef * (-ge);
                        g / n
                    })
                    .collect();
                self.policy.backward(&acts, &grad);
            }
            self.policy.step();
            policy_loss /= n;
            entropy_loss /= n;

            value_loss = 0.0;
            for (t, &ret) in batch.iter().zip(&returns) {
                let acts = self.value.forward(&t.state);
                let err = acts.last().expect("output layer")[0] - ret;
                value_loss += 0.5 * err * err;
                self.value.backward(&acts, &[c.value_coef * err / n]);
            }
            self.value.step();
            value_loss /= n;
        }
        let losses = PpoLosses {
            policy_loss,
            entropy_loss,
            value_loss,
            total_loss: policy_loss + c.entropy_coef * entropy_loss + c.value_coef * value_loss,
        };
        self.total_updates += 1;
        self.loss_history.push((total_steps, losses));
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn loss_bits(history: &[(u64, PpoLosses)]) -> Vec<(u64, [u64; 4])> {
    history
        .iter()
        .map(|(steps, l)| {
            let parts = [l.policy_loss, l.entropy_loss, l.value_loss, l.total_loss];
            (*steps, parts.map(f64::to_bits))
        })
        .collect()
}

fn assert_matches(snapshot: &PolicySnapshot, reference: &DenseAgent, case: &str) {
    assert_eq!(snapshot.total_updates, reference.total_updates, "{case}");
    assert_eq!(
        loss_bits(&snapshot.loss_history),
        loss_bits(&reference.loss_history),
        "{case}: losses"
    );
    for (name, params, opt, net) in [
        (
            "policy",
            &snapshot.policy_params,
            &snapshot.policy_opt,
            &reference.policy,
        ),
        (
            "value",
            &snapshot.value_params,
            &snapshot.value_opt,
            &reference.value,
        ),
    ] {
        let (m, v) = net.opt.moments();
        assert!(bits(params) == bits(&net.params), "{case}: {name} params");
        assert!(bits(&opt.m) == bits(m), "{case}: {name} first moments");
        assert!(bits(&opt.v) == bits(v), "{case}: {name} second moments");
        assert_eq!(opt.steps, net.opt.steps(), "{case}: {name} Adam steps");
    }
}

/// One episode under `trainer`'s policy: the state starts with about 40
/// members and gains the chosen net each step; the allowed set loses the
/// chosen net and about a third of the rest, until it runs out or eight
/// steps are done.
fn episode(trainer: &PpoTrainer, masking: bool, rng: &mut StdRng) -> Vec<Transition> {
    let mut state = vec![0.0; N];
    for _ in 0..40 {
        state[rng.gen_range(0..N)] = 1.0;
    }
    let mut allowed: Vec<bool> = (0..N).map(|_| rng.gen_bool(0.4)).collect();
    let mut steps = Vec::new();
    while steps.len() < 8 && allowed.contains(&true) {
        let mask = if masking { allowed.clone() } else { Vec::new() };
        let (action, log_prob, value) = trainer.policy_step(&state, &mask, rng);
        steps.push(Transition {
            state: state.clone(),
            mask,
            action,
            reward: rng.gen_range(0.0..1.0),
            done: false,
            log_prob,
            value,
        });
        state[action] = 1.0;
        allowed[action] = false;
        allowed.iter_mut().for_each(|a| *a &= !rng.gen_bool(0.3));
    }
    steps
        .last_mut()
        .expect("the first mask allows an action")
        .done = true;
    steps
}

#[test]
fn paper_shape_updates_match_the_dense_reference_bit_for_bit() {
    for hidden in [vec![64, 64], vec![]] {
        for masking in [true, false] {
            let case = format!("hidden {hidden:?}, masking {masking}");
            let config = PpoConfig {
                hidden_sizes: hidden.clone(),
                batch_size: 48,
                ..PpoConfig::boosted_exploration()
            };
            let mut trainers: Vec<(PpoTrainer, Exec)> = [1, 4]
                .into_iter()
                .map(|threads| (PpoTrainer::new(N, N, &config, 7), Exec::new(threads)))
                .collect();
            let mut reference = DenseAgent::new(&trainers[0].0.snapshot());
            let mut rng = StdRng::seed_from_u64(0xE4AC7);
            for update in 0..3 {
                let mut batch = Vec::new();
                while batch.len() < config.batch_size {
                    batch.extend(episode(&trainers[0].0, masking, &mut rng));
                }
                for (trainer, exec) in &mut trainers {
                    for t in &batch {
                        trainer.record(t.clone());
                    }
                    trainer.update_on(exec);
                }
                reference.update(&batch, trainers[0].0.total_steps());
                for (trainer, exec) in &trainers {
                    let case = format!("{case}, {} threads, update {update}", exec.threads());
                    assert_matches(&trainer.snapshot(), &reference, &case);
                }
            }
        }
    }
}
